// Unit tests for src/util: status, result, strings, levenshtein, rng, stats,
// radix sort.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/hash.h"
#include "util/levenshtein.h"
#include "util/radix_sort.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/string_util.h"

namespace ver {
namespace {

// --------------------------- Status / Result ---------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status s = Status::NotFound("missing table");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "missing table");
  EXPECT_EQ(s.ToString(), "NotFound: missing table");
}

TEST(StatusTest, AllCodesStringify) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kIOError), "IOError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotImplemented),
               "NotImplemented");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kAlreadyExists),
               "AlreadyExists");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Status UseParse(int x, int* out) {
  VER_ASSIGN_OR_RETURN(*out, ParsePositive(x));
  return Status::OK();
}

TEST(ResultTest, ValuePath) {
  Result<int> r = ParsePositive(4);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 4);
  EXPECT_EQ(*r, 4);
}

TEST(ResultTest, ErrorPath) {
  Result<int> r = ParsePositive(-1);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(99), 99);
}

TEST(ResultTest, AssignOrReturnMacro) {
  int out = 0;
  EXPECT_TRUE(UseParse(7, &out).ok());
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(UseParse(-7, &out).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ------------------------------ strings --------------------------------

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("AbC dEf"), "abc def");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  std::vector<std::string> parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, TokenizeSplitsOnNonAlnum) {
  std::vector<std::string> tokens = Tokenize("Birth Rate/1000 (est.)");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "birth");
  EXPECT_EQ(tokens[1], "rate");
  EXPECT_EQ(tokens[2], "1000");
  EXPECT_EQ(tokens[3], "est");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("IATA", "iata"));
  EXPECT_FALSE(EqualsIgnoreCase("IATA", "iat"));
}

TEST(StringUtilTest, NumberDetection) {
  EXPECT_TRUE(LooksLikeInt("42"));
  EXPECT_TRUE(LooksLikeInt("-7"));
  EXPECT_FALSE(LooksLikeInt("4.2"));
  EXPECT_FALSE(LooksLikeInt("x4"));
  EXPECT_FALSE(LooksLikeInt(""));
  EXPECT_TRUE(LooksLikeDouble("4.2"));
  EXPECT_TRUE(LooksLikeDouble("-4.2e3"));
  EXPECT_TRUE(LooksLikeDouble("42"));
  EXPECT_FALSE(LooksLikeDouble("4.2.3"));
  EXPECT_FALSE(LooksLikeDouble("inf"));
  EXPECT_FALSE(LooksLikeDouble("1e"));
}

TEST(StringUtilTest, FormatDoubleTrimsZeros) {
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(3.5), "3.5");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
}

// ----------------------------- levenshtein ------------------------------

TEST(LevenshteinTest, ExactAndSimpleEdits) {
  EXPECT_EQ(BoundedLevenshtein("abc", "abc", 2), 0);
  EXPECT_EQ(BoundedLevenshtein("abc", "abd", 2), 1);
  EXPECT_EQ(BoundedLevenshtein("abc", "ab", 2), 1);
  EXPECT_EQ(BoundedLevenshtein("abc", "xabc", 2), 1);
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 3), 3);
}

TEST(LevenshteinTest, BoundCutsOff) {
  // Distance is 3; with max 2 we get max+1.
  EXPECT_EQ(BoundedLevenshtein("kitten", "sitting", 2), 3);
  EXPECT_FALSE(WithinEditDistance("kitten", "sitting", 2));
  EXPECT_TRUE(WithinEditDistance("kitten", "sitting", 3));
}

TEST(LevenshteinTest, LengthGapShortCircuit) {
  EXPECT_EQ(BoundedLevenshtein("a", "aaaaaa", 2), 3);
}

TEST(LevenshteinTest, EmptyStrings) {
  EXPECT_EQ(BoundedLevenshtein("", "", 2), 0);
  EXPECT_EQ(BoundedLevenshtein("", "ab", 2), 2);
  EXPECT_EQ(BoundedLevenshtein("ab", "", 2), 2);
}

// -------------------------------- hash ----------------------------------

TEST(HashTest, StableAcrossCalls) {
  EXPECT_EQ(HashString("indiana"), HashString("indiana"));
  EXPECT_NE(HashString("indiana"), HashString("Indiana"));
}

TEST(HashTest, Mix64Avalanches) {
  // Nearby inputs produce far-apart outputs.
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(HashTest, HashCombineOrderSensitive) {
  uint64_t a = HashCombine(HashCombine(0, 1), 2);
  uint64_t b = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(a, b);
}

// -------------------------------- rng -----------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(11);
  for (int k : {0, 1, 5, 50, 100}) {
    std::vector<size_t> sample = rng.SampleWithoutReplacement(100, k);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), static_cast<size_t>(k));
    for (size_t idx : sample) EXPECT_LT(idx, 100u);
  }
}

TEST(RngTest, SkewedIndexInBounds) {
  Rng rng(13);
  for (int i = 0; i < 500; ++i) {
    EXPECT_LT(rng.SkewedIndex(10), 10u);
  }
}

TEST(RngTest, SkewedIndexIsSkewed) {
  Rng rng(17);
  int low = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    if (rng.SkewedIndex(100) < 20) ++low;
  }
  // The first fifth of indices should get well over a fifth of the mass.
  EXPECT_GT(low, trials / 3);
}

TEST(RngTest, ForkDiverges) {
  Rng rng(19);
  EXPECT_NE(rng.Fork(1), rng.Fork(1));  // advances state
}

// -------------------------------- stats ---------------------------------

TEST(StatsTest, MeanMedianPercentile) {
  std::vector<double> xs = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(Median(xs), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 4.0);
}

TEST(StatsTest, EmptyInputsAreZero) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(StatsTest, FiveNumberSummary) {
  std::vector<double> xs;
  for (int i = 1; i <= 101; ++i) xs.push_back(i);
  FiveNumberSummary s = Summarize(xs);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.median, 51);
  EXPECT_DOUBLE_EQ(s.max, 101);
  EXPECT_DOUBLE_EQ(s.p25, 26);
  EXPECT_DOUBLE_EQ(s.p75, 76);
  EXPECT_NE(s.ToString().find("med=51"), std::string::npos);
}

// ------------------------------ radix sort ------------------------------

// (key, input position) items: the position tells a stable order apart.
using Keyed = std::pair<uint64_t, int>;

std::vector<Keyed> WithPositions(const std::vector<uint64_t>& keys) {
  std::vector<Keyed> items;
  for (size_t i = 0; i < keys.size(); ++i) {
    items.emplace_back(keys[i], static_cast<int>(i));
  }
  return items;
}

void ExpectSortsLikeStableSort(const std::vector<uint64_t>& keys) {
  std::vector<Keyed> radix = WithPositions(keys);
  std::vector<Keyed> reference = radix;
  StableRadixSort(&radix, [](const Keyed& k) { return k.first; });
  auto by_key = [](Keyed x, Keyed y) { return x.first < y.first; };
  std::stable_sort(reference.begin(), reference.end(), by_key);
  EXPECT_EQ(radix, reference);
}

TEST(RadixSortTest, EmptyOneAndAllEqualInputs) {
  ExpectSortsLikeStableSort({});
  ExpectSortsLikeStableSort({42});
  ExpectSortsLikeStableSort(std::vector<uint64_t>(300, 7));
  ExpectSortsLikeStableSort(std::vector<uint64_t>(300, UINT64_MAX));
}

TEST(RadixSortTest, KeysDifferingInOneByte) {
  Rng rng(5);
  std::vector<uint64_t> top, bottom, middle;
  for (int i = 0; i < 500; ++i) {
    uint64_t digit = static_cast<uint64_t>(rng.UniformInt(0, 255));
    top.push_back((digit << 56) | 0x00123456789abcdeULL);
    bottom.push_back(0xfedcba9876543200ULL | digit);
    middle.push_back(0x1100000000000022ULL | (digit << 24));
  }
  ExpectSortsLikeStableSort(top);
  ExpectSortsLikeStableSort(bottom);
  ExpectSortsLikeStableSort(middle);
}

TEST(RadixSortTest, RandomKeysWithDuplicates) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<uint64_t> keys;
    const int n = static_cast<int>(rng.UniformInt(2, 2000));
    for (int i = 0; i < n; ++i) {
      // Few distinct keys spread over all eight bytes.
      keys.push_back(Mix64(static_cast<uint64_t>(rng.UniformInt(0, 40))));
    }
    ExpectSortsLikeStableSort(keys);
  }
}

}  // namespace
}  // namespace ver
