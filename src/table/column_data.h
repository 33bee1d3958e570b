// ColumnData: the typed columnar cell store behind Table.
//
// The seed data model kept every cell as a fat Value variant (tag + int64 +
// double + std::string, ~48 bytes before heap), so tables were
// vector<vector<Value>> and every hot loop — MinHash profiling, join
// hashing, row hashing, snapshot serde — chased pointers and re-hashed
// strings. ColumnData stores one column in one of four typed encodings:
//
//   kInt64    null bitmap + vector<int64_t>            (all non-null ints)
//   kDouble   null bitmap + vector<double>             (all non-null doubles)
//   kNumeric  null bitmap + payload words + int-tag    (ints mixed with
//             bitmap (bit set = cell is an int)         doubles, bit-exact)
//   kDict     null bitmap + uint32 codes over a         (any column holding
//             per-column dictionary of distinct cells    strings; noisy
//             backed by a string arena                   mixed cells too)
//
// A column starts as kInt64 and promotes itself as appended cells demand
// (int -> double -> numeric -> dict); promotion re-encodes the existing
// rows once, so ingest stays append-only. Dictionary entries carry a
// cached Value-compatible hash, which is what makes profiling and join
// hashing run on codes instead of re-hashing strings.
//
// CellView is the zero-copy read path: a 16-byte (type tag + payload)
// view whose Hash(), Compare() and ToText() are bit-identical to Value's,
// with string payloads viewing the column arena. Views are invalidated by
// any subsequent mutation of the column, like vector iterators.

#ifndef VER_TABLE_COLUMN_DATA_H_
#define VER_TABLE_COLUMN_DATA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "pager/paged_view.h"
#include "table/value.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/serde.h"

namespace ver {

/// Physical layout of one column; see the file comment for the lattice.
enum class ColumnEncoding : uint8_t {
  kInt64 = 0,
  kDouble = 1,
  kNumeric = 2,
  kDict = 3,
};

const char* ColumnEncodingToString(ColumnEncoding e);

/// A 16-byte non-owning view of one cell. Total order, hashing and text
/// rendering agree bit-for-bit with Value; string payloads point into the
/// owning column's arena (or a Value's storage) and stay valid until that
/// owner is mutated or destroyed.
class CellView {
 public:
  CellView() : int_(0), len_(0), type_(ValueType::kNull) {}

  static CellView Null() { return CellView(); }
  static CellView Int(int64_t v) {
    CellView out;
    out.type_ = ValueType::kInt;
    out.int_ = v;
    return out;
  }
  static CellView Double(double v) {
    CellView out;
    out.type_ = ValueType::kDouble;
    out.double_ = v;
    return out;
  }
  static CellView String(std::string_view s) {
    CellView out;
    out.type_ = ValueType::kString;
    out.str_ = s.data();
    out.len_ = static_cast<uint32_t>(s.size());
    return out;
  }
  /// Views `v` without copying; for string values the view borrows the
  /// Value's buffer and must not outlive it.
  static CellView Of(const Value& v);

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }
  bool is_numeric() const {
    return type_ == ValueType::kInt || type_ == ValueType::kDouble;
  }

  int64_t AsInt() const { return int_; }
  double AsDouble() const {
    return type_ == ValueType::kInt ? static_cast<double>(int_) : double_;
  }
  std::string_view AsStringView() const { return {str_, len_}; }

  /// Materializes an owning Value (the legacy boundary type).
  Value ToValue() const;

  /// Canonical textual form; identical to Value::ToText().
  std::string ToText() const;

  /// Appends ToText() to *out without building a temporary string (ints
  /// render via to_chars) — the scratch-buffer form for scan loops.
  void AppendTextTo(std::string* out) const;

  /// Stable 64-bit hash; identical to Value::Hash() for the same cell.
  uint64_t Hash() const;

  /// Total order: null < numerics (by numeric value) < strings; identical
  /// to Value::Compare() for the same cells.
  int Compare(const CellView& other) const;

  bool operator==(const CellView& other) const { return Compare(other) == 0; }
  bool operator!=(const CellView& other) const { return Compare(other) != 0; }
  bool operator<(const CellView& other) const { return Compare(other) < 0; }

 private:
  union {
    int64_t int_;
    double double_;
    const char* str_;
  };
  uint32_t len_;
  ValueType type_;
};

static_assert(sizeof(CellView) == 16, "CellView must stay 16 bytes");

/// One typed column. Append-only during ingest (Append / Reserve), then
/// read through cell()/CellHash(). Seal() sorts the dictionary and drops
/// the intern map once loading is done; appending to a sealed column
/// transparently unseals it.
class ColumnData {
 public:
  int64_t size() const { return num_rows_; }
  ColumnEncoding encoding() const { return enc_; }
  bool is_dict() const { return enc_ == ColumnEncoding::kDict; }
  bool sealed() const { return sealed_; }

  /// Pre-allocates for `rows` total rows so appends never reallocate.
  void Reserve(int64_t rows);

  void Append(const Value& v) { Append(CellView::Of(v)); }
  void Append(const CellView& v);

  /// Gather's working memory: the source-code remap table, the output
  /// code of every gathered row and the selected dictionary entries. A
  /// caller that gathers many columns keeps one, so its capacity is reused
  /// across calls.
  class GatherScratch {
   private:
    friend class ColumnData;
    static constexpr uint32_t kUnmapped = UINT32_MAX;
    struct Slot {
      uint32_t key = 0;  // source code + 1; 0 marks an empty slot
      uint32_t value = kUnmapped;
    };
    /// Forgets every mapping; sizes the table for `max_keys` codes and the
    /// code array for `rows` rows.
    void Reset(size_t max_keys, size_t rows);
    /// The output code of source `code`; kUnmapped until the caller sets it.
    uint32_t& Map(uint32_t code);

    std::vector<Slot> slots_;  // open addressing, load factor <= 1/2
    size_t mask_ = 0;
    std::vector<uint32_t> codes_;    // output code per gathered row
    std::vector<uint32_t> entries_;  // selected source codes, in order
  };

  /// The column holding src's cells at rows[0..n) (repeats allowed), equal
  /// to Append()ing them one by one to an empty column: same encoding on
  /// the int -> double -> numeric -> dict lattice, same type tallies and
  /// payload layout, and a dictionary in first-occurrence order. Payloads
  /// are copied typed and dictionary sources remap their codes, copying
  /// each selected entry (bytes and cached hash) once, so no cell is
  /// re-hashed or re-interned. One remap pass sizes the output exactly;
  /// every array then lives in one zeroed 8-byte-aligned block the column
  /// owns (paged sources are copied out of the mapped extents, so the
  /// result never borrows snapshot memory). The result has no intern map,
  /// and a later Append copies the arrays out of the block and rebuilds it.
  static ColumnData Gather(const ColumnData& src, const int64_t* rows,
                           int64_t n, GatherScratch* scratch);
  static ColumnData Gather(const ColumnData& src, const int64_t* rows,
                           int64_t n) {
    GatherScratch scratch;
    return Gather(src, rows, n, &scratch);
  }

  /// Zero-copy read of one cell.
  CellView cell(int64_t row) const;
  /// Materialized legacy read.
  Value value(int64_t row) const { return cell(row).ToValue(); }
  /// Value-compatible hash of one cell; dictionary columns return the
  /// cached entry hash without touching string bytes.
  uint64_t CellHash(int64_t row) const;
  bool is_null(int64_t row) const {
    VER_DCHECK(row >= 0 && row < num_rows_)
        << "row " << row << " outside column of " << num_rows_;
    return (valid_words_[static_cast<size_t>(row) >> 6] &
            (uint64_t{1} << (row & 63))) == 0;
  }

  // Blocked hash kernels (util/simd.h): the scan-shaped bulk forms of
  // CellHash(), bit-identical to the per-row calls at every dispatch level.

  /// Row-hash accumulation: acc[i] = HashCombine(acc[i], CellHash(i)) for
  /// i < n (n <= size()). The column-major building block behind
  /// Table::AllRowHashes — cell hashes are staged through a stack block
  /// straight off the typed payload arrays, no CellView materialized.
  void CombineCellHashesInto(uint64_t* acc, int64_t n) const;

  /// Gathered variant over explicit row numbers:
  /// acc[i] = HashCombine(acc[i], CellHash(rows[i])) for i < n. Serves
  /// projection-shaped scans (a subset of rows in arbitrary order).
  void CombineCellHashesInto(uint64_t* acc, const int64_t* rows,
                             int64_t n) const;

  /// Bulk per-cell hashing: out[i] = CellHash(i) for i < n (n <= size()).
  /// Null rows hash to kNullValueHash, exactly like CellHash().
  void CellHashesInto(uint64_t* out, int64_t n) const;

  /// The validity bitmap words (bit (row & 63) of word (row >> 6) set =
  /// non-null); (size() + 63) / 64 words. Lets bulk consumers (hash-join
  /// build, kernels) test nulls without per-row calls.
  const uint64_t* validity_words() const { return valid_words_.data(); }

  // Type tallies over appended cells (non-null cells tally under their
  // type). O(1): maintained during Append.
  int64_t null_count() const { return num_nulls_; }
  int64_t int_count() const { return num_ints_; }
  int64_t double_count() const { return num_doubles_; }
  int64_t string_count() const { return num_strings_; }

  /// Deduplicated hashes of the distinct non-null cells, sorted ascending
  /// (sort+unique over a contiguous hash array — cheaper than the old
  /// unordered_set build and deterministic across layouts for free).
  /// Dictionary columns answer from cached entry hashes without scanning
  /// rows.
  std::vector<uint64_t> DistinctHashes() const;

  /// Number of distinct cell hashes, optionally counting null as a value
  /// (the Table::DistinctCount semantics). One set pass.
  int64_t DistinctCount(bool count_null) const;

  /// Visits every distinct non-null cell at least once: dictionary columns
  /// visit each entry exactly once with no row scan; other encodings visit
  /// all non-null cells (callers that need exact-once dedup keep their own
  /// set — numeric texts are cheap to re-derive). Keeps the encoding
  /// special-casing inside the storage layer.
  template <typename Fn>
  void ForEachDistinctCell(const Fn& fn) const {
    if (is_dict()) {
      for (uint32_t c = 0; c < entry_types_.size(); ++c) fn(dict_entry(c));
      return;
    }
    for (int64_t r = 0; r < num_rows_; ++r) {
      if (!is_null(r)) fn(cell(r));
    }
  }

  // Dictionary access (valid only when is_dict()).
  size_t dict_size() const { return entry_types_.size(); }
  /// Dictionary code of a non-null row.
  uint32_t code(int64_t row) const {
    VER_DCHECK(is_dict()) << "code() on a " << ColumnEncodingToString(enc_)
                          << " column";
    VER_DCHECK(!is_null(row)) << "code() on null row " << row;
    return codes_[row];
  }
  CellView dict_entry(uint32_t code) const;
  uint64_t dict_entry_hash(uint32_t code) const {
    VER_DCHECK(code < entry_hashes_.size())
        << "code " << code << " outside dictionary of "
        << entry_hashes_.size();
    return entry_hashes_[code];
  }

  /// Sorts the dictionary into cell total order (ties broken by type then
  /// payload bits), remaps codes, frees the intern map and drops capacity
  /// slack. Idempotent; purely an internal re-layout — cell(), CellHash()
  /// and all query results are unaffected. Repository tables get this via
  /// TableRepository::AddTable.
  void Seal();

  /// Resident bytes of this column's storage (capacities, arena, gathered
  /// block, intern map estimate).
  size_t ApproxBytes() const;

  /// Columnar snapshot serialization: bitmap words, typed payload and
  /// dictionary (types + payloads + lengths + cached hashes + arena), each
  /// one PagedView SaveTo/LoadFrom, so loading is a handful of memcpys —
  /// or, with `borrow` (a paged load), zero copies: every array is adopted
  /// as a borrowed extent of the mmapped snapshot.
  ///
  /// Trust model: every load keeps the O(1) structural checks (counts,
  /// tallies, array sizes). A resident load (no borrow) also runs
  /// ValidateContent before the column is usable. A paged load skips it —
  /// scanning would fault in every page of a column the query may never
  /// touch, defeating lazy cold start — and TableRepository::CheckTable
  /// runs it the first time a query reads the table.
  void SaveTo(SerdeWriter* w) const;
  Status LoadFrom(SerdeReader* r, bool borrow = false);

  /// The O(rows + dictionary) content checks that make every cell read
  /// safe: dictionary entry types, string entries inside the arena, codes
  /// of non-null rows inside the dictionary, and the validity bitmap's
  /// popcount against the null tally. IOError names the first violation.
  Status ValidateContent() const;

 private:
  /// Fills buf[0..len) with CellHash(base + i), dispatching on the encoding
  /// once per block instead of once per cell.
  void FillCellHashes(int64_t base, size_t len, uint64_t* buf) const;
  void AppendValidityBit(bool non_null);
  void BecomeDouble();
  void PromoteToNumeric();
  void PromoteToDict();
  uint32_t Intern(const CellView& v);
  bool EntryEquals(uint32_t code, const CellView& v) const;
  void EnsureLookup();
  /// Materializes every borrowing view into owned storage — the write
  /// barrier every mutating entry point runs first, so appending to a
  /// paged-loaded column transparently copies it out of the snapshot map,
  /// and appending to a gathered column copies it out of its block.
  void EnsureOwned();

  /// A gathered column's storage block: every storage array borrows an
  /// extent of it. Copies start without one — copying a column copies its
  /// borrowing arrays into owned ones — so a block has exactly one owner;
  /// moves keep the borrows valid, since the block itself does not move.
  class Block {
   public:
    Block() = default;
    Block(const Block&) {}
    Block& operator=(const Block& o) {
      if (this != &o) Reset();
      return *this;
    }
    Block(Block&&) noexcept = default;
    Block& operator=(Block&&) noexcept = default;

    /// Replaces the block with `words` zeroed 8-byte words.
    uint64_t* Allocate(size_t words) {
      words_.reset(new uint64_t[words]());
      bytes_ = words * sizeof(uint64_t);
      return words_.get();
    }
    void Reset() {
      words_.reset();
      bytes_ = 0;
    }
    bool empty() const { return words_ == nullptr; }
    size_t bytes() const { return bytes_; }

   private:
    std::unique_ptr<uint64_t[]> words_;
    size_t bytes_ = 0;
  };

  ColumnEncoding enc_ = ColumnEncoding::kInt64;
  bool sealed_ = false;
  int64_t num_rows_ = 0;
  int64_t reserved_rows_ = 0;  // Reserve() target, honored across promotions
  int64_t num_nulls_ = 0;
  int64_t num_ints_ = 0;
  int64_t num_doubles_ = 0;
  int64_t num_strings_ = 0;

  // Storage arrays are PagedViews: owned containers during ingest
  // and resident loads, borrowed mmap extents under a paged load, borrowed
  // extents of block_ after a Gather. Read paths are mode-blind; mutation
  // goes through .mut() behind EnsureOwned().

  /// Validity bitmap: bit (row & 63) of word (row >> 6) set = non-null.
  PagedView<uint64_t> valid_words_;

  PagedView<int64_t> ints_;      // kInt64 payload (0 on null rows)
  PagedView<double> doubles_;    // kDouble payload (0 on null rows)
  PagedView<uint64_t> num_bits_; // kNumeric payload: int64 or double bits
  PagedView<uint64_t> int_tag_words_;  // kNumeric: bit set = cell is kInt

  // kDict state. Entry i: entry_types_[i] in {kInt,kDouble,kString};
  // numeric entries keep their value/IEEE bits in entry_payload_[i];
  // string entries keep {arena offset, length} in
  // {entry_payload_[i], entry_lens_[i]}.
  PagedView<uint32_t> codes_;  // per-row code (0 on null rows)
  PagedView<uint8_t> entry_types_;
  PagedView<uint64_t> entry_payload_;
  PagedView<uint32_t> entry_lens_;
  PagedView<uint64_t> entry_hashes_;  // cached Value-compatible hashes
  PagedView<char> arena_;             // string bytes, back to back
  // Intern map: cell hash -> codes with that hash (collisions resolved by
  // exact payload identity). Dropped by Seal(), rebuilt on demand.
  std::unordered_map<uint64_t, std::vector<uint32_t>> lookup_;
  // Declared last: an assignment replaces the arrays before it drops the
  // block they borrowed.
  Block block_;
};

}  // namespace ver

#endif  // VER_TABLE_COLUMN_DATA_H_
