// Unit tests for the typed columnar storage core: ColumnData encodings
// (null bitmaps, int/double/numeric/dict), dictionary round-trips, Seal()
// re-layout, CellView vs Value agreement, and columnar serde.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "page_aligned_bytes.h"
#include "pager/buffer_pool.h"
#include "table/column_data.h"
#include "table/table.h"
#include "util/row_deduper.h"
#include "util/serde.h"
#include "util/check.h"

namespace ver {
namespace {

// ------------------------------- CellView --------------------------------

std::vector<Value> InterestingValues() {
  return {
      Value::Null(),
      Value::Int(0),
      Value::Int(-1),
      Value::Int(2),
      Value::Int(std::numeric_limits<int64_t>::min()),
      Value::Int(std::numeric_limits<int64_t>::max()),
      Value::Double(0.0),
      Value::Double(-0.0),
      Value::Double(2.0),
      Value::Double(2.5),
      Value::Double(-1e300),
      Value::Double(1e-300),
      Value::String(""),
      Value::String("a"),
      Value::String("abc"),
      Value::String("ABC"),
      Value::String(std::string(100, 'x')),
      Value::String("2"),  // text twin of Int(2), must NOT compare equal
  };
}

TEST(CellViewTest, SixteenBytes) { EXPECT_EQ(sizeof(CellView), 16u); }

TEST(CellViewTest, HashAgreesWithValueForEveryCell) {
  for (const Value& v : InterestingValues()) {
    EXPECT_EQ(CellView::Of(v).Hash(), v.Hash()) << v.ToText();
  }
}

TEST(CellViewTest, ToTextAndToValueRoundTrip) {
  for (const Value& v : InterestingValues()) {
    CellView c = CellView::Of(v);
    EXPECT_EQ(c.ToText(), v.ToText());
    EXPECT_EQ(c.ToValue().Compare(v), 0) << v.ToText();
    EXPECT_EQ(c.type(), v.type());
  }
}

TEST(CellViewTest, TotalOrderAgreesWithValueOnAllPairs) {
  std::vector<Value> values = InterestingValues();
  for (const Value& a : values) {
    for (const Value& b : values) {
      int expect = a.Compare(b);
      int got = CellView::Of(a).Compare(CellView::Of(b));
      // Same sign, including 0.
      EXPECT_EQ(expect < 0, got < 0) << a.ToText() << " vs " << b.ToText();
      EXPECT_EQ(expect == 0, got == 0) << a.ToText() << " vs " << b.ToText();
    }
  }
}

TEST(CellViewTest, IntDoubleTwinsCompareEqualButKeepTheirType) {
  CellView i = CellView::Int(2), d = CellView::Double(2.0);
  EXPECT_EQ(i.Compare(d), 0);
  EXPECT_EQ(i.Hash(), d.Hash());
  EXPECT_EQ(i.type(), ValueType::kInt);
  EXPECT_EQ(d.type(), ValueType::kDouble);
}

// ------------------------------ encodings --------------------------------

TEST(ColumnDataTest, PureIntColumnStaysFlat) {
  ColumnData col;
  for (int i = 0; i < 100; ++i) col.Append(CellView::Int(i));
  EXPECT_EQ(col.encoding(), ColumnEncoding::kInt64);
  EXPECT_EQ(col.size(), 100);
  EXPECT_EQ(col.cell(42).AsInt(), 42);
  EXPECT_EQ(col.CellHash(42), Value::Int(42).Hash());
  EXPECT_EQ(col.int_count(), 100);
  EXPECT_EQ(col.null_count(), 0);
}

TEST(ColumnDataTest, AllNullThenDoubleBecomesDoubleColumn) {
  ColumnData col;
  col.Append(CellView::Null());
  col.Append(CellView::Null());
  col.Append(CellView::Double(1.5));
  EXPECT_EQ(col.encoding(), ColumnEncoding::kDouble);
  EXPECT_TRUE(col.cell(0).is_null());
  EXPECT_TRUE(col.cell(1).is_null());
  EXPECT_DOUBLE_EQ(col.cell(2).AsDouble(), 1.5);
  EXPECT_EQ(col.null_count(), 2);
}

TEST(ColumnDataTest, MixedIntDoublePromotesToNumericAndStaysExact) {
  ColumnData col;
  col.Append(CellView::Int(7));
  col.Append(CellView::Double(2.5));
  col.Append(CellView::Null());
  col.Append(CellView::Int(std::numeric_limits<int64_t>::max()));
  EXPECT_EQ(col.encoding(), ColumnEncoding::kNumeric);
  EXPECT_EQ(col.cell(0).type(), ValueType::kInt);
  EXPECT_EQ(col.cell(0).AsInt(), 7);
  EXPECT_EQ(col.cell(1).type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(col.cell(1).AsDouble(), 2.5);
  EXPECT_TRUE(col.cell(2).is_null());
  // int64 values beyond 2^53 survive bit-exactly (no double rounding).
  EXPECT_EQ(col.cell(3).AsInt(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(col.int_count(), 2);
  EXPECT_EQ(col.double_count(), 1);
}

TEST(ColumnDataTest, StringPromotesAnyColumnToDict) {
  ColumnData col;
  col.Append(CellView::Int(1));
  col.Append(CellView::Double(2.5));
  col.Append(CellView::String("x"));
  EXPECT_EQ(col.encoding(), ColumnEncoding::kDict);
  EXPECT_EQ(col.cell(0).ToText(), "1");
  EXPECT_EQ(col.cell(0).type(), ValueType::kInt);
  EXPECT_EQ(col.cell(1).ToText(), "2.5");
  EXPECT_EQ(col.cell(2).AsStringView(), "x");
  EXPECT_EQ(col.string_count(), 1);
}

TEST(ColumnDataTest, DictionaryDedupesAndCachesHashes) {
  ColumnData col;
  for (int i = 0; i < 1000; ++i) {
    col.Append(CellView::String(i % 2 == 0 ? "even" : "odd"));
  }
  ASSERT_TRUE(col.is_dict());
  EXPECT_EQ(col.dict_size(), 2u);
  EXPECT_EQ(col.code(0), col.code(2));
  EXPECT_NE(col.code(0), col.code(1));
  EXPECT_EQ(col.CellHash(0), Value::String("even").Hash());
  EXPECT_EQ(col.dict_entry_hash(col.code(1)), Value::String("odd").Hash());
  EXPECT_EQ(col.DistinctHashes().size(), 2u);
}

TEST(ColumnDataTest, IntAndDoubleTwinsAreDistinctDictEntries) {
  // 2 and 2.0 compare equal and hash equal, but each cell must render back
  // with its original type ("2" stays what the source data said).
  ColumnData col;
  col.Append(CellView::String("tag"));
  col.Append(CellView::Int(2));
  col.Append(CellView::Double(2.0));
  ASSERT_TRUE(col.is_dict());
  EXPECT_EQ(col.dict_size(), 3u);
  EXPECT_EQ(col.cell(1).type(), ValueType::kInt);
  EXPECT_EQ(col.cell(2).type(), ValueType::kDouble);
  EXPECT_EQ(col.CellHash(1), col.CellHash(2));
  // The distinct hash set merges the twins, exactly like per-cell hashing.
  EXPECT_EQ(col.DistinctHashes().size(), 2u);
}

// ----------------------------- null bitmap -------------------------------

TEST(ColumnDataTest, NullBitmapAtWordBoundaries) {
  // Nulls at positions straddling the 64-bit bitmap words.
  for (int64_t n : {63, 64, 65, 128, 130}) {
    ColumnData col;
    for (int64_t i = 0; i < n; ++i) {
      if (i % 63 == 0) {
        col.Append(CellView::Null());
      } else {
        col.Append(CellView::Int(i));
      }
    }
    ASSERT_EQ(col.size(), n);
    int64_t nulls = 0;
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(col.is_null(i), i % 63 == 0) << "n=" << n << " i=" << i;
      if (col.is_null(i)) {
        ++nulls;
        EXPECT_EQ(col.CellHash(i), Value::Null().Hash());
      } else {
        EXPECT_EQ(col.cell(i).AsInt(), i);
      }
    }
    EXPECT_EQ(col.null_count(), nulls);
  }
}

TEST(ColumnDataTest, AllNullColumn) {
  ColumnData col;
  for (int i = 0; i < 70; ++i) col.Append(CellView::Null());
  EXPECT_EQ(col.null_count(), 70);
  EXPECT_TRUE(col.cell(69).is_null());
  EXPECT_TRUE(col.DistinctHashes().empty());
}

// -------------------------------- Seal -----------------------------------

TEST(ColumnDataTest, SealSortsDictionaryAndPreservesCells) {
  ColumnData col;
  std::vector<std::string> words = {"pear", "apple", "pear", "banana",
                                    "apple", "cherry"};
  for (const std::string& w : words) col.Append(CellView::String(w));
  col.Append(CellView::Null());
  std::vector<uint64_t> before;
  for (int64_t r = 0; r < col.size(); ++r) before.push_back(col.CellHash(r));

  col.Seal();
  EXPECT_TRUE(col.sealed());
  // Dictionary is in cell total order after sealing.
  for (uint32_t c = 0; c + 1 < col.dict_size(); ++c) {
    EXPECT_LT(col.dict_entry(c).Compare(col.dict_entry(c + 1)), 0);
  }
  // Cells and hashes are unchanged by the re-layout.
  for (size_t r = 0; r < words.size(); ++r) {
    EXPECT_EQ(col.cell(r).AsStringView(), words[r]);
    EXPECT_EQ(col.CellHash(r), before[r]);
  }
  EXPECT_TRUE(col.is_null(static_cast<int64_t>(words.size())));

  // Appending after Seal() transparently unseals and keeps deduping
  // against the existing dictionary.
  col.Append(CellView::String("apple"));
  EXPECT_FALSE(col.sealed());
  EXPECT_EQ(col.dict_size(), 4u);
  EXPECT_EQ(col.cell(col.size() - 1).AsStringView(), "apple");
}

TEST(ColumnDataTest, SealIsIdempotentAndSafeOnEveryEncoding) {
  ColumnData ints, strs, empty;
  ints.Append(CellView::Int(1));
  strs.Append(CellView::String("x"));
  for (ColumnData* c : {&ints, &strs, &empty}) {
    c->Seal();
    c->Seal();
    EXPECT_TRUE(c->sealed());
  }
  EXPECT_EQ(ints.cell(0).AsInt(), 1);
  EXPECT_EQ(strs.cell(0).AsStringView(), "x");
}

// ------------------------------- serde -----------------------------------

ColumnData RoundTrip(const ColumnData& col) {
  SerdeWriter w;
  col.SaveTo(&w);
  SerdeReader r(w.buffer(), "column under test");
  ColumnData out;
  EXPECT_TRUE(out.LoadFrom(&r).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
  return out;
}

TEST(ColumnDataTest, SerdeRoundTripsEveryEncoding) {
  ColumnData ints, doubles, numeric, dict;
  for (int i = 0; i < 130; ++i) {
    ints.Append(i % 7 == 0 ? CellView::Null() : CellView::Int(i));
    doubles.Append(i % 5 == 0 ? CellView::Null() : CellView::Double(i / 3.0));
    numeric.Append(i % 2 == 0 ? CellView::Int(i) : CellView::Double(i + 0.5));
    dict.Append(i % 11 == 0
                    ? CellView::Null()
                    : CellView::String("w" + std::to_string(i % 13)));
  }
  dict.Seal();
  for (const ColumnData* col : {&ints, &doubles, &numeric, &dict}) {
    ColumnData loaded = RoundTrip(*col);
    ASSERT_EQ(loaded.size(), col->size());
    EXPECT_EQ(loaded.encoding(), col->encoding());
    EXPECT_EQ(loaded.sealed(), col->sealed());
    for (int64_t r = 0; r < col->size(); ++r) {
      EXPECT_EQ(loaded.cell(r).Compare(col->cell(r)), 0) << r;
      EXPECT_EQ(loaded.cell(r).type(), col->cell(r).type()) << r;
      EXPECT_EQ(loaded.CellHash(r), col->CellHash(r)) << r;
    }
  }
}

std::string Serialized(const ColumnData& col) {
  SerdeWriter w;
  col.SaveTo(&w);
  return w.buffer();
}

TEST(ColumnDataTest, GatheredDictKeepsDedupOnLaterAppends) {
  ColumnData src;
  src.Append(CellView::String("a"));
  src.Append(CellView::String("b"));
  const std::vector<int64_t> rows = {0, 1};
  ColumnData col = ColumnData::Gather(src, rows.data(), 2);
  EXPECT_FALSE(col.sealed());
  // A gathered column has no intern map; the one rebuilt on append must
  // dedupe against the gathered dictionary.
  col.Append(CellView::String("a"));
  EXPECT_EQ(col.dict_size(), 2u);
  EXPECT_EQ(col.code(0), col.code(2));
  // The append copied the arrays out of the gathered block first: the
  // gathered cells survive next to the appended ones, and a new entry
  // grows the copied dictionary and arena.
  col.Append(CellView::String("c"));
  ASSERT_EQ(col.size(), 4);
  EXPECT_EQ(col.dict_size(), 3u);
  const char* want[] = {"a", "b", "a", "c"};
  for (int64_t r = 0; r < 4; ++r) {
    EXPECT_EQ(col.cell(r).AsStringView(), want[r]) << r;
    EXPECT_EQ(col.CellHash(r), CellView::String(want[r]).Hash()) << r;
  }
  EXPECT_EQ(src.size(), 2);
  EXPECT_EQ(src.dict_size(), 2u);
}

// A table of `rows` rows: a repetitive string column and an int column.
Table StringIntTable(int rows) {
  Schema schema;
  schema.AddAttribute(Attribute{"s", ValueType::kString});
  schema.AddAttribute(Attribute{"i", ValueType::kInt});
  Table t("t", schema);
  for (int i = 0; i < rows; ++i) {
    VER_CHECK_OK(t.AppendRow(
        {Value::String("value_" + std::to_string(i % 40)), Value::Int(i)}));
  }
  t.Seal();
  return t;
}

void ExpectSameCells(const ColumnData& got, const ColumnData& want) {
  ASSERT_EQ(got.size(), want.size());
  for (int64_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got.cell(r).type(), want.cell(r).type()) << r;
    EXPECT_EQ(got.cell(r).Compare(want.cell(r)), 0) << r;
    EXPECT_EQ(got.CellHash(r), want.CellHash(r)) << r;
  }
}

TEST(ColumnDataTest, GatheredColumnOwnsOneBlockAndIsNotPaged) {
  const Table t = StringIntTable(300);
  const std::vector<int64_t> rows = {5, 17, 5, 299, 0, 41};
  const int64_t n = static_cast<int64_t>(rows.size());
  for (int c = 0; c < 2; ++c) {
    SCOPED_TRACE(c);
    ColumnData gathered = ColumnData::Gather(t.column_data(c), rows.data(), n);
    EXPECT_FALSE(gathered.paged());
    // Every array borrows the block, so ApproxBytes must count the block
    // to cover at least the validity word and one payload slot per row.
    EXPECT_GE(gathered.ApproxBytes(),
              sizeof(ColumnData) + sizeof(uint64_t) +
                  static_cast<size_t>(n) * sizeof(uint32_t));
    const std::string bytes = Serialized(gathered);

    // A copy owns its arrays: it outlives the original and its block.
    ColumnData copy = gathered;
    ColumnData assigned;
    assigned = gathered;
    // A move keeps the borrow valid: the block does not move.
    ColumnData moved = std::move(gathered);
    gathered = ColumnData();
    EXPECT_EQ(Serialized(moved), bytes);
    moved = ColumnData();
    EXPECT_EQ(Serialized(copy), bytes);
    EXPECT_EQ(Serialized(assigned), bytes);
    EXPECT_FALSE(copy.paged());
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(copy.cell(i).Compare(t.cell(rows[i], c)), 0) << i;
      EXPECT_EQ(copy.CellHash(i), t.cell_hash(rows[i], c)) << i;
    }
    // Appending to the copy leaves the other copy untouched.
    copy.Append(CellView::String("new"));
    EXPECT_EQ(Serialized(assigned), bytes);
  }
}

#if defined(__unix__) || defined(__APPLE__)
TEST(ColumnDataTest, GatherFromPagedTableCopiesOutOfTheSnapshot) {
  const Table t = StringIntTable(300);
  SerdeWriter w;
  t.SaveTo(&w);
  BufferPoolOptions options;
  options.frame_bytes = 4096;
  BufferPool pool(options);
  Table gathered;
  {
    PageAlignedBytes snapshot(w.buffer());
    const uint32_t space = pool.RegisterSpace(
        snapshot.base(), snapshot.capacity(), /*evictable=*/false);
    PagerBinding binding{&pool, space, snapshot.base()};
    Table paged;
    SerdeReader r(std::string_view(snapshot.base(), snapshot.size()), "test");
    ASSERT_TRUE(paged.LoadFrom(&r, &binding).ok());
    ASSERT_TRUE(paged.paged());
    auto pool_touches = [&pool] {
      BufferPoolStats s = pool.stats();
      return s.hits + s.misses;
    };
    {
      const int64_t before = pool_touches();
      PagePin pin(&pool);
      paged.PinInto(&pin);
      EXPECT_GT(pool_touches(), before);  // the control: a paged pin counts
    }
    gathered = paged.Project({1, 0}, /*distinct=*/true, "gathered");
    EXPECT_FALSE(gathered.paged());
    const int64_t before = pool_touches();
    {
      PagePin pin(&pool);
      gathered.PinInto(&pin);
    }
    EXPECT_EQ(pool_touches(), before);
    pool.RetireSpace(space);
  }
  // The snapshot bytes are freed: the gathered table reads its own block.
  ASSERT_EQ(gathered.num_rows(), 300);
  ExpectSameCells(gathered.column_data(0), t.column_data(1));
  ExpectSameCells(gathered.column_data(1), t.column_data(0));
}
#endif  // defined(__unix__) || defined(__APPLE__)

TEST(ColumnDataTest, LoadedDictColumnAcceptsNewAppends) {
  ColumnData col;
  col.Append(CellView::String("a"));
  col.Append(CellView::String("b"));
  col.Seal();
  ColumnData loaded = RoundTrip(col);
  loaded.Append(CellView::String("a"));  // dedupes against loaded dictionary
  loaded.Append(CellView::String("c"));
  EXPECT_EQ(loaded.dict_size(), 3u);
  EXPECT_EQ(loaded.code(0), loaded.code(2));
}

TEST(ColumnDataTest, CorruptColumnPayloadsAreRejected) {
  ColumnData col;
  for (int i = 0; i < 10; ++i) {
    col.Append(i % 2 == 0 ? CellView::String("s" + std::to_string(i))
                          : CellView::Null());
  }
  SerdeWriter w;
  col.SaveTo(&w);
  std::string bytes = w.buffer();

  // Truncations at every prefix must error, never crash or over-allocate.
  for (size_t cut : {size_t{0}, size_t{1}, bytes.size() / 2,
                     bytes.size() - 1}) {
    SerdeReader r(std::string_view(bytes).substr(0, cut), "truncated column");
    ColumnData out;
    EXPECT_FALSE(out.LoadFrom(&r).ok()) << "cut=" << cut;
  }

  // Inconsistent tallies: claim one fewer null than the bitmap holds.
  {
    ColumnData good;
    good.Append(CellView::Int(1));
    good.Append(CellView::Null());
    SerdeWriter w2;
    good.SaveTo(&w2);
    std::string b = w2.TakeBuffer();
    // Layout: u8 enc, u8 sealed, i64 rows, i64 nulls at offset 10.
    b[10] = 0;
    SerdeReader r(b, "tampered column");
    ColumnData out;
    Status s = out.LoadFrom(&r);
    EXPECT_FALSE(s.ok());
  }
}

// ------------------------- Table-level behavior ---------------------------

TEST(ColumnDataTest, TableReserveDoesNotChangeResults) {
  Schema schema;
  schema.AddAttribute(Attribute{"k", ValueType::kString});
  schema.AddAttribute(Attribute{"v", ValueType::kString});
  Table plain("plain", schema), reserved("reserved", schema);
  reserved.Reserve(500);
  for (int i = 0; i < 500; ++i) {
    std::vector<Value> row = {Value::String("k" + std::to_string(i % 37)),
                              Value::Int(i)};
    ASSERT_TRUE(plain.AppendRow(row).ok());
    ASSERT_TRUE(reserved.AppendRow(row).ok());
  }
  EXPECT_EQ(plain.AllRowHashes(), reserved.AllRowHashes());
  EXPECT_EQ(plain.DistinctCount(0), reserved.DistinctCount(0));
}

TEST(ColumnDataTest, TableSerdeRoundTripsBitIdentically) {
  Schema schema;
  schema.AddAttribute(Attribute{"name", ValueType::kString});
  schema.AddAttribute(Attribute{"score", ValueType::kDouble});
  Table t("mixed", schema);
  VER_CHECK_OK(t.AppendRow({Value::String("alice"), Value::Double(1.5)}));
  VER_CHECK_OK(t.AppendRow({Value::Null(), Value::Int(2)}));
  VER_CHECK_OK(t.AppendRow({Value::String("bob"), Value::Null()}));
  t.Seal();

  SerdeWriter w;
  t.SaveTo(&w);
  SerdeReader r(w.buffer(), "table under test");
  Table loaded;
  ASSERT_TRUE(loaded.LoadFrom(&r).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(loaded.name(), t.name());
  EXPECT_EQ(loaded.num_rows(), t.num_rows());
  EXPECT_EQ(loaded.AllRowHashes(), t.AllRowHashes());
  EXPECT_EQ(loaded.ToString(100), t.ToString(100));
}

TEST(ColumnDataTest, ProjectDistinctSurvivesHashCollisionSemantics) {
  // Distinct projection dedups by row hash first, then confirms with exact
  // cell comparison — duplicate rows collapse, near-duplicates survive.
  Schema schema;
  schema.AddAttribute(Attribute{"a", ValueType::kString});
  Table t("t", schema);
  VER_CHECK_OK(t.AppendRow({Value::String("x")}));
  VER_CHECK_OK(t.AppendRow({Value::String("x")}));
  VER_CHECK_OK(t.AppendRow({Value::Int(2)}));
  // hash-equal, compare-equal twin
  VER_CHECK_OK(t.AppendRow({Value::Double(2.0)}));
  VER_CHECK_OK(t.AppendRow({Value::String("y")}));
  Table p = t.Project({0}, /*distinct=*/true, "p");
  // "x" dedupes; Int(2)/Double(2.0) compare equal so they dedupe too.
  EXPECT_EQ(p.num_rows(), 3);
}

TEST(RowDeduperTest, ConfirmsEqualHashesCellByCell) {
  // Every row offered under one hash: only exact cell comparison tells
  // distinct rows from duplicates, along one long probe chain.
  const std::vector<CellView> cells = {
      CellView::String("a"), CellView::String("b"), CellView::String("a"),
      CellView::Int(2),      CellView::Double(2.0), CellView::String("c")};
  auto same_cell = [&cells](int64_t a, int64_t b) {
    return cells[a].Compare(cells[b]) == 0;
  };
  RowDeduper deduper;
  deduper.Reset(static_cast<int64_t>(cells.size()));
  std::vector<bool> kept;
  for (int64_t t = 0; t < static_cast<int64_t>(cells.size()); ++t) {
    kept.push_back(deduper.Insert(/*hash=*/42, t, same_cell));
  }
  // "a" repeats; Int(2) and Double(2.0) compare equal.
  EXPECT_EQ(kept, (std::vector<bool>{true, true, false, true, false, true}));
  // Reset forgets every kept row.
  deduper.Reset(1);
  EXPECT_TRUE(deduper.Insert(42, 2, same_cell));
}

TEST(ColumnDataTest, ApproxBytesShrinksForRepetitiveStrings) {
  Schema schema;
  schema.AddAttribute(Attribute{"s", ValueType::kString});
  Table t("t", schema);
  const std::string long_val(64, 'z');
  for (int i = 0; i < 1000; ++i) {
    VER_CHECK_OK(
        t.AppendRow({Value::String(long_val + std::to_string(i % 8))}));
  }
  t.Seal();
  // 1000 cells sharing 8 distinct 65+ byte strings: dictionary storage must
  // be far below one owned std::string per cell.
  size_t seed_floor = 1000 * sizeof(Value);
  EXPECT_LT(t.ApproxBytes(), seed_floor);
}

// -------------------------------- Gather ---------------------------------

// Gather must equal Append()ing the selected cells one by one to an empty
// column: encoding, tallies, dictionary entries in first-occurrence order,
// and every cell with its hash — and, as a catch-all, the serialized bytes.
void ExpectGatherEqualsAppends(const ColumnData& src,
                               const std::vector<int64_t>& rows,
                               const std::string& what) {
  SCOPED_TRACE(what);
  ColumnData want;
  for (int64_t r : rows) want.Append(src.cell(r));
  ColumnData got = ColumnData::Gather(src, rows.data(),
                                      static_cast<int64_t>(rows.size()));
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.encoding(), want.encoding());
  EXPECT_EQ(got.null_count(), want.null_count());
  EXPECT_EQ(got.int_count(), want.int_count());
  EXPECT_EQ(got.double_count(), want.double_count());
  EXPECT_EQ(got.string_count(), want.string_count());
  ASSERT_EQ(got.dict_size(), want.dict_size());
  for (uint32_t c = 0; c < got.dict_size(); ++c) {
    EXPECT_EQ(got.dict_entry(c).type(), want.dict_entry(c).type()) << c;
    EXPECT_EQ(got.dict_entry(c).Compare(want.dict_entry(c)), 0) << c;
    EXPECT_EQ(got.dict_entry_hash(c), want.dict_entry_hash(c)) << c;
  }
  for (int64_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got.cell(r).type(), want.cell(r).type()) << r;
    EXPECT_EQ(got.cell(r).Compare(want.cell(r)), 0) << r;
    EXPECT_EQ(got.CellHash(r), want.CellHash(r)) << r;
  }
  EXPECT_EQ(Serialized(got), Serialized(want));
}

ColumnData MakeColumn(int n, CellView (*cell_at)(int)) {
  ColumnData col;
  for (int i = 0; i < n; ++i) col.Append(cell_at(i));
  return col;
}

// String cells view this table of literals, so they outlive every column.
const std::string& Text(int i) {
  static const std::vector<std::string> texts = [] {
    std::vector<std::string> t;
    for (int k = 0; k < 16; ++k) t.push_back("s" + std::to_string(k));
    t.push_back("");
    t.push_back(std::string(100, 'x'));
    return t;
  }();
  return texts[static_cast<size_t>(i) % texts.size()];
}

TEST(ColumnGatherTest, EqualsPerCellAppendForEveryEncodingAndSelection) {
  constexpr int kRows = 150;  // spans three bitmap words
  struct Source {
    std::string name;
    ColumnData col;
  };
  std::vector<Source> sources;
  sources.push_back({"ints", MakeColumn(kRows, [](int i) {
                       return i % 7 == 0 ? CellView::Null()
                                         : CellView::Int(i * 3 - 50);
                     })});
  sources.push_back({"doubles", MakeColumn(kRows, [](int i) {
                       return i % 5 == 0 ? CellView::Null()
                                         : CellView::Double(i * 0.5 - 3);
                     })});
  sources.push_back({"numeric", MakeColumn(kRows, [](int i) {
                       if (i % 6 == 0) return CellView::Null();
                       if (i % 11 == 1) return CellView::Double(-0.0);
                       return i % 2 ? CellView::Int(i % 9)
                                    : CellView::Double(i % 9 + 0.25);
                     })});
  sources.push_back({"strings", MakeColumn(kRows, [](int i) {
                       return i % 9 == 0 ? CellView::Null()
                                         : CellView::String(Text(i % 13));
                     })});
  sources.push_back({"dict_mixed", MakeColumn(kRows, [](int i) {
                       switch (i % 4) {
                         case 0:
                           return CellView::Int(i % 5);
                         case 1:
                           return CellView::Double(i % 3 + 0.5);
                         case 2:
                           return CellView::String(Text(i % 7));
                       }
                       return CellView::Null();
                     })});
  sources.push_back({"all_null", MakeColumn(kRows, [](int) {
                       return CellView::Null();
                     })});
  // Sealed dictionaries are sorted, so source code order differs from the
  // first-occurrence order a gather must produce.
  for (size_t i = 0, n = sources.size(); i < n; ++i) {
    Source sealed{sources[i].name + "_sealed", sources[i].col};
    sealed.col.Seal();
    sources.push_back(std::move(sealed));
  }
  ASSERT_EQ(sources[0].col.encoding(), ColumnEncoding::kInt64);
  ASSERT_EQ(sources[1].col.encoding(), ColumnEncoding::kDouble);
  ASSERT_EQ(sources[2].col.encoding(), ColumnEncoding::kNumeric);
  ASSERT_EQ(sources[3].col.encoding(), ColumnEncoding::kDict);
  ASSERT_EQ(sources[4].col.encoding(), ColumnEncoding::kDict);

  for (const Source& s : sources) {
    const ColumnData& col = s.col;
    std::vector<std::pair<std::string, std::vector<int64_t>>> selections;
    std::vector<int64_t> all, reversed, strided, nulls;
    for (int64_t r = 0; r < col.size(); ++r) {
      all.push_back(r);
      reversed.push_back(col.size() - 1 - r);
      if (r % 3 == 1) strided.push_back(r);
      if (col.is_null(r)) nulls.push_back(r);
    }
    selections.push_back({"all", all});
    selections.push_back({"reversed", reversed});
    selections.push_back({"strided", strided});
    selections.push_back({"repeated", {3, 3, 1, 3, 1, 0, 2, 2, 149, 3}});
    selections.push_back({"empty", {}});
    selections.push_back({"all_null", nulls});
    // One selection per cell type and for ints with doubles (with and
    // without nulls): a dictionary source whose selected rows hold no
    // string must leave the dictionary encoding.
    for (ValueType t : {ValueType::kInt, ValueType::kDouble,
                        ValueType::kString}) {
      std::vector<int64_t> only;
      for (int64_t r = 0; r < col.size(); ++r) {
        if (col.cell(r).type() == t) only.push_back(r);
      }
      selections.push_back({std::string("only_") + ValueTypeToString(t),
                            only});
    }
    std::vector<int64_t> numbers, numbers_and_nulls;
    for (int64_t r = 0; r < col.size(); ++r) {
      if (col.cell(r).type() != ValueType::kString) {
        numbers_and_nulls.push_back(r);
        if (!col.is_null(r)) numbers.push_back(r);
      }
    }
    selections.push_back({"numbers", numbers});
    selections.push_back({"numbers_and_nulls", numbers_and_nulls});
    for (const auto& [name, rows] : selections) {
      ExpectGatherEqualsAppends(col, rows, s.name + "/" + name);
    }
  }
}

TEST(ColumnGatherTest, DictSourceWithoutSelectedStringsLeavesDict) {
  ColumnData src;
  src.Append(CellView::String("a"));
  src.Append(CellView::Int(4));
  src.Append(CellView::Double(1.5));
  src.Append(CellView::Null());
  ASSERT_TRUE(src.is_dict());
  auto gather = [&src](std::vector<int64_t> rows) {
    return ColumnData::Gather(src, rows.data(),
                              static_cast<int64_t>(rows.size()));
  };
  EXPECT_EQ(gather({1, 3}).encoding(), ColumnEncoding::kInt64);
  EXPECT_EQ(gather({3, 2}).encoding(), ColumnEncoding::kDouble);
  EXPECT_EQ(gather({2, 1}).encoding(), ColumnEncoding::kNumeric);
  EXPECT_EQ(gather({3}).encoding(), ColumnEncoding::kInt64);
  EXPECT_EQ(gather({1, 0}).encoding(), ColumnEncoding::kDict);
}

}  // namespace
}  // namespace ver
