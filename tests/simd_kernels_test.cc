// Bit-identity tests for the vectorized kernel layer (util/simd.h).
//
// Every kernel must compute exactly what its scalar reference loop
// computes, at every dispatch level, across block-boundary sizes (0, 1,
// block-1, block, block+1, non-multiples) — a kernel that is fast but off
// by one bit silently corrupts row hashes, sketches and join results. The
// suite also forces the runtime-dispatch fallback on (ScopedSimdLevel) so
// the scalar tier is exercised even on AVX2 hosts, and cross-checks the
// storage-level entry points (CombineCellHashesInto, CellHashesInto,
// FlatU64MultiMap, PackedBitset) against their per-row references.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "table/column_data.h"
#include "table/value.h"
#include "util/bitset.h"
#include "util/flat_multimap.h"
#include "util/hash.h"
#include "util/minhash.h"
#include "util/simd.h"

namespace ver {
namespace {

// Block-boundary sizes: empty, single, around the staging block, and a
// non-multiple well past it.
const size_t kSizes[] = {0,   1,   4,   7,   simd::kBlockCells - 1,
                         simd::kBlockCells, simd::kBlockCells + 1, 1000};

std::vector<uint64_t> DeterministicU64(size_t n, uint64_t seed) {
  std::vector<uint64_t> out(n);
  uint64_t state = seed;
  for (size_t i = 0; i < n; ++i) {
    state = Mix64(state + 0x9e3779b97f4a7c15ULL);
    out[i] = state;
  }
  return out;
}

// Runs `fn` once per dispatch level this host supports, labeled by tier.
template <typename Fn>
void ForEachLevel(const Fn& fn) {
  for (int l = 0; l <= static_cast<int>(simd::DetectedLevel()); ++l) {
    simd::Level level = static_cast<simd::Level>(l);
    simd::ScopedSimdLevel forced(level);
    ASSERT_EQ(simd::ActiveLevel(), level);
    fn(level);
  }
}

TEST(SimdDispatchTest, ForcedLevelClampsAndResets) {
  simd::ForceLevel(simd::Level::kScalar);
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  // Forcing above the detected tier clamps instead of dispatching to
  // instructions the CPU lacks.
  simd::ForceLevel(simd::Level::kAvx2);
  EXPECT_LE(static_cast<int>(simd::ActiveLevel()),
            static_cast<int>(simd::DetectedLevel()));
  simd::ForceLevel(simd::Level::kAvx512);
  EXPECT_LE(static_cast<int>(simd::ActiveLevel()),
            static_cast<int>(simd::DetectedLevel()));
  simd::ResetForcedLevel();
  EXPECT_NE(simd::LevelName(simd::ActiveLevel()), std::string("unknown"));
}

TEST(SimdKernelTest, CombineHashesMatchesScalarReference) {
  for (size_t n : kSizes) {
    std::vector<uint64_t> hashes = DeterministicU64(n, 1);
    std::vector<uint64_t> init = DeterministicU64(n, 2);
    std::vector<uint64_t> expected = init;
    for (size_t i = 0; i < n; ++i) {
      expected[i] = HashCombine(expected[i], hashes[i]);
    }
    ForEachLevel([&](simd::Level level) {
      std::vector<uint64_t> acc = init;
      simd::CombineHashes(acc.data(), hashes.data(), n);
      EXPECT_EQ(acc, expected)
          << "n=" << n << " level=" << simd::LevelName(level);
    });
  }
}

TEST(SimdKernelTest, HashInt64CellsMatchesScalarReference) {
  for (size_t n : kSizes) {
    std::vector<int64_t> values(n);
    std::vector<uint64_t> raw = DeterministicU64(n, 3);
    for (size_t i = 0; i < n; ++i) values[i] = static_cast<int64_t>(raw[i]);
    if (n >= 4) {  // pin edge payloads
      values[0] = 0;
      values[1] = std::numeric_limits<int64_t>::max();
      values[2] = std::numeric_limits<int64_t>::min();
      values[3] = -1;
    }
    std::vector<uint64_t> expected(n);
    for (size_t i = 0; i < n; ++i) expected[i] = HashIntValue(values[i]);
    ForEachLevel([&](simd::Level level) {
      std::vector<uint64_t> out(n, 0);
      simd::HashInt64Cells(values.data(), n, out.data());
      EXPECT_EQ(out, expected)
          << "n=" << n << " level=" << simd::LevelName(level);
    });
  }
}

TEST(SimdKernelTest, HashDoubleCellsMatchesScalarReference) {
  // Payloads hit every HashDoubleValue branch, including both sides of the
  // integral-twin bound (the largest twins, +-(9.2e18 - 1024), and the
  // smallest non-twins, +-9.2e18 and -2^63) and the 2^53 range where every
  // double is integral. Twins cluster so some lane groups are all-twin,
  // some mixed and some twin-free.
  const double kTwoTo53 = 9007199254740992.0;
  const double kEdges[] = {0.0,
                           -0.0,
                           2.0,
                           2.5,
                           -17.0,
                           1e300,
                           -1e300,
                           9.3e18,
                           9.2e18 - 1024,
                           -(9.2e18 - 1024),
                           9.2e18,
                           -9.2e18,
                           kTwoTo53,
                           -kTwoTo53,
                           kTwoTo53 + 2,
                           -(kTwoTo53 + 2),
                           static_cast<double>(
                               std::numeric_limits<int64_t>::min()),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::denorm_min()};
  const size_t kNumEdges = sizeof(kEdges) / sizeof(kEdges[0]);
  for (size_t n : kSizes) {
    std::vector<double> values(n);
    std::vector<uint64_t> raw = DeterministicU64(n, 12);
    for (size_t i = 0; i < n; ++i) {
      if (raw[i] % 3 == 0) {
        values[i] = kEdges[raw[i] % kNumEdges];
      } else if (raw[i] % 3 == 1) {
        values[i] = static_cast<double>(static_cast<int64_t>(raw[i] % 4096));
      } else {
        values[i] = static_cast<double>(raw[i] % 99999) / 100.0;
      }
    }
    // Every edge at the head (full lane groups) and at the tail (the
    // remainder past the last full group) wherever both fit.
    if (n >= 2 * kNumEdges) {
      for (size_t k = 0; k < kNumEdges; ++k) {
        values[k] = kEdges[k];
        values[n - kNumEdges + k] = kEdges[k];
      }
    }
    std::vector<uint64_t> expected(n);
    for (size_t i = 0; i < n; ++i) expected[i] = HashDoubleValue(values[i]);
    ForEachLevel([&](simd::Level level) {
      std::vector<uint64_t> out(n, 0);
      simd::HashDoubleCells(values.data(), n, out.data());
      EXPECT_EQ(out, expected)
          << "n=" << n << " level=" << simd::LevelName(level);
    });
  }
}

TEST(SimdKernelTest, MinHashUpdateMatchesElementOuterLoop) {
  // Permutation counts around the 4- and 8-lane widths, element counts
  // around the block: every tier must land on the reference minima.
  for (size_t num_perms : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                           size_t{5}, size_t{128}}) {
    std::vector<uint64_t> seeds = DeterministicU64(num_perms, 9);
    for (size_t n : kSizes) {
      std::vector<uint64_t> elems = DeterministicU64(n, 10);
      std::vector<uint64_t> expected(
          num_perms, std::numeric_limits<uint64_t>::max());
      for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < num_perms; ++j) {
          uint64_t h = Mix64(elems[i] ^ seeds[j]);
          if (h < expected[j]) expected[j] = h;
        }
      }
      ForEachLevel([&](simd::Level level) {
        std::vector<uint64_t> slots(
            num_perms, std::numeric_limits<uint64_t>::max());
        simd::MinHashUpdate(slots.data(), seeds.data(), num_perms,
                            elems.data(), n);
        EXPECT_EQ(slots, expected) << "perms=" << num_perms << " n=" << n
                                   << " level=" << simd::LevelName(level);
      });
    }
  }
}

TEST(SimdKernelTest, MinHasherComputeIdenticalAcrossLevels) {
  MinHasher hasher(128, /*seed=*/42);
  std::vector<uint64_t> elems = DeterministicU64(777, 11);
  simd::ScopedSimdLevel scalar(simd::Level::kScalar);
  MinHashSignature ref = hasher.Compute(elems);
  simd::ResetForcedLevel();
  MinHashSignature fast = hasher.Compute(elems);
  EXPECT_EQ(ref.slots, fast.slots);
  EXPECT_EQ(ref.cardinality, fast.cardinality);
}

// ---------------------------------------------------------------------------
// Storage entry points: blocked column kernels vs the per-row accessors.
// ---------------------------------------------------------------------------

// One column per encoding, with and without nulls, sized past the block.
std::vector<ColumnData> TestColumns(int64_t rows) {
  std::vector<ColumnData> cols(8);
  uint64_t state = 99;
  auto next = [&state]() {
    state = Mix64(state + 0x9e3779b97f4a7c15ULL);
    return state;
  };
  for (int64_t r = 0; r < rows; ++r) {
    bool make_null = next() % 5 == 0;
    int64_t iv = static_cast<int64_t>(next() % 1000);
    double dv = static_cast<double>(next() % 1000) / 8.0;
    std::string sv = "s" + std::to_string(next() % 97);
    cols[0].Append(CellView::Int(iv));
    cols[1].Append(make_null ? CellView::Null() : CellView::Int(iv));
    cols[2].Append(CellView::Double(dv));
    cols[3].Append(make_null ? CellView::Null() : CellView::Double(dv));
    // Numeric: ints and doubles interleaved.
    cols[4].Append(r % 2 == 0 ? CellView::Int(iv) : CellView::Double(dv));
    cols[5].Append(make_null
                       ? CellView::Null()
                       : (r % 2 == 0 ? CellView::Int(iv)
                                     : CellView::Double(dv)));
    cols[6].Append(CellView::String(sv));
    cols[7].Append(make_null ? CellView::Null() : CellView::String(sv));
  }
  return cols;
}

TEST(ColumnKernelTest, CellHashesIntoMatchesCellHash) {
  for (int64_t rows : {int64_t{0}, int64_t{1}, int64_t{255}, int64_t{256},
                       int64_t{257}, int64_t{700}}) {
    std::vector<ColumnData> cols = TestColumns(rows);
    for (const ColumnData& col : cols) {
      std::vector<uint64_t> expected(static_cast<size_t>(rows));
      for (int64_t r = 0; r < rows; ++r) expected[r] = col.CellHash(r);
      ForEachLevel([&](simd::Level level) {
        std::vector<uint64_t> out(static_cast<size_t>(rows), 0);
        col.CellHashesInto(out.data(), rows);
        EXPECT_EQ(out, expected)
            << "rows=" << rows
            << " enc=" << ColumnEncodingToString(col.encoding())
            << " level=" << simd::LevelName(level);
      });
    }
  }
}

TEST(ColumnKernelTest, CombineCellHashesIntoMatchesPerRowChain) {
  for (int64_t rows : {int64_t{0}, int64_t{1}, int64_t{255}, int64_t{256},
                       int64_t{257}, int64_t{700}}) {
    std::vector<ColumnData> cols = TestColumns(rows);
    std::vector<uint64_t> init = DeterministicU64(rows, 12);
    for (const ColumnData& col : cols) {
      std::vector<uint64_t> expected = init;
      for (int64_t r = 0; r < rows; ++r) {
        expected[r] = HashCombine(expected[r], col.CellHash(r));
      }
      ForEachLevel([&](simd::Level level) {
        std::vector<uint64_t> acc = init;
        col.CombineCellHashesInto(acc.data(), rows);
        EXPECT_EQ(acc, expected)
            << "rows=" << rows
            << " enc=" << ColumnEncodingToString(col.encoding())
            << " level=" << simd::LevelName(level);
      });
    }
  }
}

TEST(ColumnKernelTest, GatheredCombineMatchesPerRowChain) {
  const int64_t rows = 600;
  std::vector<ColumnData> cols = TestColumns(rows);
  // Gather list with repeats and arbitrary order.
  std::vector<int64_t> gather;
  for (int64_t r = rows - 1; r >= 0; r -= 2) gather.push_back(r);
  for (int64_t r = 0; r < rows; r += 3) gather.push_back(r);
  const int64_t n = static_cast<int64_t>(gather.size());
  std::vector<uint64_t> init = DeterministicU64(n, 13);
  for (const ColumnData& col : cols) {
    std::vector<uint64_t> expected = init;
    for (int64_t i = 0; i < n; ++i) {
      expected[i] = HashCombine(expected[i], col.CellHash(gather[i]));
    }
    ForEachLevel([&](simd::Level level) {
      std::vector<uint64_t> acc = init;
      col.CombineCellHashesInto(acc.data(), gather.data(), n);
      EXPECT_EQ(acc, expected)
          << "enc=" << ColumnEncodingToString(col.encoding())
          << " level=" << simd::LevelName(level);
    });
  }
}

TEST(ColumnKernelTest, DistinctHashesSortedAndComplete) {
  std::vector<ColumnData> cols = TestColumns(700);
  for (const ColumnData& col : cols) {
    std::vector<uint64_t> got = col.DistinctHashes();
    ASSERT_TRUE(std::is_sorted(got.begin(), got.end()));
    ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end());
    std::set<uint64_t> expected;
    for (int64_t r = 0; r < col.size(); ++r) {
      if (!col.is_null(r)) expected.insert(col.CellHash(r));
    }
    EXPECT_EQ(std::vector<uint64_t>(expected.begin(), expected.end()), got)
        << "enc=" << ColumnEncodingToString(col.encoding());
  }
}

// ---------------------------------------------------------------------------
// PackedBitset
// ---------------------------------------------------------------------------

TEST(PackedBitsetTest, WordBoundariesAndAscendingIteration) {
  for (size_t bits : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                      size_t{65}, size_t{1000}}) {
    PackedBitset set(bits);
    std::vector<size_t> inserted;
    for (size_t b = 0; b < bits; b += (b % 7) + 1) {
      EXPECT_TRUE(set.TestAndSet(b));
      EXPECT_FALSE(set.TestAndSet(b)) << "second insert of " << b;
      EXPECT_TRUE(set.test(b));
      inserted.push_back(b);
    }
    EXPECT_EQ(set.Popcount(), inserted.size());
    std::vector<size_t> drained;
    set.ForEachSetBit([&drained](size_t b) { drained.push_back(b); });
    EXPECT_EQ(drained, inserted) << "bits=" << bits;  // ascending order
    set.ClearAll();
    EXPECT_EQ(set.Popcount(), 0u);
  }
}

// ---------------------------------------------------------------------------
// FlatU64MultiMap vs unordered_map reference
// ---------------------------------------------------------------------------

TEST(FlatMultiMapTest, MatchesUnorderedMapReference) {
  for (size_t n : kSizes) {
    // Heavy duplication plus edge keys (0, max) and a null bitmap.
    std::vector<uint64_t> keys(n);
    std::vector<uint64_t> raw = DeterministicU64(n, 14);
    std::vector<uint64_t> valid_words((n + 63) / 64, 0);
    std::unordered_map<uint64_t, std::vector<int64_t>> ref;
    for (size_t i = 0; i < n; ++i) {
      keys[i] = raw[i] % 17 == 0 ? 0
                : raw[i] % 17 == 1
                    ? std::numeric_limits<uint64_t>::max()
                    : raw[i] % 31;
      bool valid = raw[i] % 5 != 0;
      if (!valid) continue;
      valid_words[i >> 6] |= uint64_t{1} << (i & 63);
      ref[keys[i]].push_back(static_cast<int64_t>(i));
    }
    FlatU64MultiMap map;
    map.Build(keys.data(), valid_words.data(), static_cast<int64_t>(n));
    size_t total = 0;
    for (const auto& [key, rows] : ref) {
      FlatU64MultiMap::Group g = map.Find(key);
      ASSERT_EQ(g.size, rows.size()) << "key=" << key << " n=" << n;
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(g.begin[i], rows[i]) << "key=" << key;  // ascending rows
      }
      total += g.size;
    }
    EXPECT_EQ(map.num_rows(), total);
    // Absent keys (including when the table is empty).
    EXPECT_EQ(map.Find(0xdeadbeefdeadbeefULL).size, 0u);
    map.PrefetchBucket(123);  // must be safe on any table, including empty
  }
}

TEST(FlatMultiMapTest, NullBitmapMasksRows) {
  const int64_t n = 100;
  std::vector<uint64_t> keys(n, 7);
  std::vector<uint64_t> valid_words(2, 0);  // everything null
  FlatU64MultiMap map;
  map.Build(keys.data(), valid_words.data(), n);
  EXPECT_EQ(map.Find(7).size, 0u);
  EXPECT_TRUE(map.empty());
  // Null bitmap pointer may be omitted: all rows valid.
  map.Build(keys.data(), nullptr, n);
  ASSERT_EQ(map.Find(7).size, static_cast<size_t>(n));
  EXPECT_EQ(map.Find(7).begin[0], 0);
  EXPECT_EQ(map.Find(7).begin[n - 1], n - 1);
}

}  // namespace
}  // namespace ver
