// Property tests validating the discovery index against brute-force
// references on randomized repositories: containment neighbors vs exact
// pairwise computation, keyword search vs linear scan, join-graph
// connectivity vs reachability, the candidate-pair walk vs a set-based
// walk over the stored buckets, and paired containments vs one direction
// at a time.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "discovery/engine.h"
#include "table/column_stats.h"
#include "util/minhash.h"
#include "util/rng.h"
#include "util/serde.h"
#include "util/string_util.h"

namespace ver {
namespace {

// Random repository over a small shared vocabulary so containment
// relationships actually occur.
TableRepository RandomRepo(uint64_t seed, int num_tables) {
  Rng rng(seed);
  TableRepository repo;
  for (int t = 0; t < num_tables; ++t) {
    Schema schema;
    int cols = static_cast<int>(rng.UniformInt(1, 3));
    for (int c = 0; c < cols; ++c) {
      schema.AddAttribute(Attribute{
          "col" + std::to_string(c) + "_" + std::to_string(t),
          ValueType::kString});
    }
    Table table("t" + std::to_string(t), schema);
    int rows = static_cast<int>(rng.UniformInt(3, 25));
    for (int r = 0; r < rows; ++r) {
      std::vector<Value> row;
      for (int c = 0; c < cols; ++c) {
        row.push_back(
            Value::String("w" + std::to_string(rng.UniformInt(0, 30))));
      }
      (void)table.AppendRow(std::move(row));
    }
    table.InferColumnTypes();
    (void)repo.AddTable(std::move(table));
  }
  return repo;
}

class DiscoveryPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DiscoveryPropertyTest, NeighborsMatchBruteForceContainment) {
  TableRepository repo = RandomRepo(GetParam(), 8);
  auto engine = DiscoveryEngine::Build(repo);
  const double threshold = 0.8;

  // Brute force: exact containment between all column pairs.
  std::vector<ColumnRef> columns = repo.AllColumns();
  std::unordered_map<uint64_t, std::vector<uint64_t>> distinct;
  for (const ColumnRef& c : columns) {
    distinct[c.Encode()] = DistinctValueHashes(
        repo.table(c.table_id), c.column_index);
  }
  for (const ColumnRef& query : columns) {
    if (distinct[query.Encode()].size() < 2) continue;  // below min_distinct
    std::set<uint64_t> expected;
    for (const ColumnRef& other : columns) {
      if (other == query) continue;
      if (distinct[other.Encode()].size() < 2) continue;
      if (ExactContainment(distinct[query.Encode()],
                           distinct[other.Encode()]) >= threshold) {
        expected.insert(other.Encode());
      }
    }
    std::set<uint64_t> actual;
    for (const ColumnRef& n : engine->Neighbors(query, threshold)) {
      actual.insert(n.Encode());
    }
    EXPECT_EQ(actual, expected)
        << "neighbors mismatch for " << repo.ColumnDisplayName(query);
  }
}

TEST_P(DiscoveryPropertyTest, KeywordSearchMatchesLinearScan) {
  TableRepository repo = RandomRepo(GetParam() + 100, 6);
  auto engine = DiscoveryEngine::Build(repo);
  for (int w = 0; w < 31; w += 5) {
    std::string needle = "w" + std::to_string(w);
    std::set<uint64_t> expected;
    for (const ColumnRef& c : repo.AllColumns()) {
      const ColumnData& data = repo.column_data(c);
      for (int64_t r = 0; r < data.size(); ++r) {
        CellView v = data.cell(r);
        if (!v.is_null() && ToLower(v.ToText()) == needle) {
          expected.insert(c.Encode());
          break;
        }
      }
    }
    std::set<uint64_t> actual;
    for (const KeywordHit& h :
         engine->SearchKeyword(needle, KeywordTarget::kValues)) {
      actual.insert(h.column.Encode());
    }
    EXPECT_EQ(actual, expected) << needle;
  }
}

TEST_P(DiscoveryPropertyTest, JoinGraphsConnectAllRequestedTables) {
  TableRepository repo = RandomRepo(GetParam() + 200, 8);
  auto engine = DiscoveryEngine::Build(repo);
  Rng rng(GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    int32_t a = static_cast<int32_t>(rng.UniformInt(0, repo.num_tables() - 1));
    int32_t b = static_cast<int32_t>(rng.UniformInt(0, repo.num_tables() - 1));
    std::vector<JoinGraph> graphs = engine->GenerateJoinGraphs({a, b}, 2);
    for (const JoinGraph& g : graphs) {
      // Both requested tables appear.
      EXPECT_TRUE(std::find(g.tables.begin(), g.tables.end(), a) !=
                  g.tables.end());
      EXPECT_TRUE(std::find(g.tables.begin(), g.tables.end(), b) !=
                  g.tables.end());
      if (a == b) continue;
      // Edge set forms a connected graph over g.tables.
      std::unordered_map<int32_t, std::vector<int32_t>> adj;
      for (const JoinEdge& e : g.edges) {
        adj[e.left.table_id].push_back(e.right.table_id);
        adj[e.right.table_id].push_back(e.left.table_id);
      }
      std::unordered_set<int32_t> seen{g.tables.front()};
      std::vector<int32_t> stack{g.tables.front()};
      while (!stack.empty()) {
        int32_t cur = stack.back();
        stack.pop_back();
        for (int32_t next : adj[cur]) {
          if (seen.insert(next).second) stack.push_back(next);
        }
      }
      for (int32_t t : g.tables) {
        EXPECT_TRUE(seen.count(t))
            << "table " << t << " disconnected in " << g.ToString(repo);
      }
      // Hop limit respected per requested pair (spanning-chain bound).
      EXPECT_LE(g.num_hops(), 2 * 2);
    }
  }
}

TEST_P(DiscoveryPropertyTest, SketchEstimatesTrackExactScores) {
  TableRepository repo = RandomRepo(GetParam() + 300, 6);
  DiscoveryOptions sketch_only;
  sketch_only.profiler.exact_set_max = 0;
  sketch_only.profiler.minhash_permutations = 256;
  auto engine = DiscoveryEngine::Build(repo, sketch_only);
  std::vector<ColumnRef> columns = repo.AllColumns();
  for (size_t i = 0; i < columns.size(); ++i) {
    for (size_t j = i + 1; j < columns.size(); ++j) {
      const ColumnProfile& a = engine->profile(columns[i]);
      const ColumnProfile& b = engine->profile(columns[j]);
      double est = ProfileJaccard(a, b);
      double exact = ExactJaccard(
          DistinctValueHashes(repo.table(columns[i].table_id),
                              columns[i].column_index),
          DistinctValueHashes(repo.table(columns[j].table_id),
                              columns[j].column_index));
      EXPECT_NEAR(est, exact, 0.25);
    }
  }
}

// Lake for the candidate-pair walk: columns drawn from a shared
// vocabulary (value buckets of many members), constant columns (below any
// min_distinct), two-valued columns, and, with `disjoint`, only values no
// other column holds (no bucket of either tier pairs anything).
TableRepository PairLake(uint64_t seed, int num_tables, bool disjoint) {
  Rng rng(seed);
  TableRepository repo;
  for (int t = 0; t < num_tables; ++t) {
    Schema schema;
    int cols = static_cast<int>(rng.UniformInt(1, 4));
    for (int c = 0; c < cols; ++c) {
      std::string name = "c" + std::to_string(c);
      schema.AddAttribute(Attribute{name, ValueType::kString});
    }
    std::vector<int> kind(static_cast<size_t>(cols));
    for (int& k : kind) k = static_cast<int>(rng.UniformInt(0, 3));
    Table table("t" + std::to_string(t), schema);
    int rows = static_cast<int>(rng.UniformInt(2, 30));
    for (int r = 0; r < rows; ++r) {
      std::vector<Value> row;
      for (int c = 0; c < cols; ++c) {
        std::string v;
        if (disjoint) {
          v = "t" + std::to_string(t) + "c" + std::to_string(c);
          v += "r" + std::to_string(r);
        } else if (kind[static_cast<size_t>(c)] == 0) {
          v = "const";
        } else if (kind[static_cast<size_t>(c)] == 1) {
          v = "pair" + std::to_string(rng.UniformInt(0, 1));
        } else {
          v = "w" + std::to_string(rng.UniformInt(0, 40));
        }
        row.push_back(Value::String(v));
      }
      (void)table.AppendRow(std::move(row));
    }
    table.InferColumnTypes();
    (void)repo.AddTable(std::move(table));
  }
  return repo;
}

// The stored buckets of both tiers, read back from the index's serialized
// section (rows per band, eligibility flags, the value store, the bands).
struct StoredBuckets {
  std::vector<std::vector<int>> values;
  std::vector<std::vector<int>> bands;
};

StoredBuckets ReadStoredBuckets(const SimilarityIndex& index) {
  SerdeWriter w;
  index.SaveTo(&w);
  SerdeReader r(w.buffer(), "similarity section");
  auto read_store = [&r](std::vector<std::vector<int>>* out) {
    std::vector<uint64_t> keys;
    std::vector<uint32_t> offsets;
    std::vector<int> postings;
    EXPECT_TRUE(r.ReadVector(&keys).ok());
    EXPECT_TRUE(r.ReadVector(&offsets).ok());
    EXPECT_TRUE(r.ReadVector(&postings).ok());
    for (size_t k = 0; k < keys.size(); ++k) {
      auto first = postings.begin() + offsets[k];
      out->emplace_back(first, postings.begin() + offsets[k + 1]);
    }
  };
  int32_t rows_per_band;
  uint64_t num_profiles, num_bands;
  EXPECT_TRUE(r.ReadI32(&rows_per_band).ok());
  EXPECT_TRUE(r.ReadU64(&num_profiles).ok());
  for (uint64_t i = 0; i < num_profiles; ++i) {
    bool eligible;
    EXPECT_TRUE(r.ReadBool(&eligible).ok());
  }
  StoredBuckets stored;
  read_store(&stored.values);
  EXPECT_TRUE(r.ReadU64(&num_bands).ok());
  for (uint64_t b = 0; b < num_bands; ++b) read_store(&stored.bands);
  EXPECT_EQ(r.remaining(), 0u);
  return stored;
}

// The reference candidate-pair walk: every pair of members of every stored
// bucket, deduplicated and ordered by a set.
std::vector<std::pair<int, int>> SetBasedPairs(const StoredBuckets& stored) {
  std::set<std::pair<int, int>> pairs;
  for (const auto* tier : {&stored.values, &stored.bands}) {
    for (const std::vector<int>& bucket : *tier) {
      for (size_t i = 0; i < bucket.size(); ++i) {
        for (size_t j = i + 1; j < bucket.size(); ++j) {
          int a = bucket[i], b = bucket[j];
          pairs.insert({std::min(a, b), std::max(a, b)});
        }
      }
    }
  }
  return {pairs.begin(), pairs.end()};
}

size_t LongestBucket(const std::vector<std::vector<int>>& tier) {
  size_t longest = 0;
  for (const std::vector<int>& bucket : tier) {
    longest = std::max(longest, bucket.size());
  }
  return longest;
}

TEST_P(DiscoveryPropertyTest, CandidatePairsMatchSetBasedWalk) {
  TableRepository repo = PairLake(GetParam() + 400, 14, /*disjoint=*/false);
  struct Variant {
    const char* name;
    int lsh_bands;
    int64_t min_distinct;
    size_t max_posting_length;
    int64_t exact_set_max;
  };
  const Variant variants[] = {
      {"defaults", 32, 2, 256, 100000},
      {"posting cap 3", 32, 2, 3, 100000},
      {"one row per band", 128, 3, 256, 100000},
      {"two rows per band, cap 1, sketch-only wide columns", 64, 2, 1, 6},
  };
  for (const Variant& v : variants) {
    SCOPED_TRACE(v.name);
    DiscoveryOptions options;
    options.similarity.lsh_bands = v.lsh_bands;
    options.similarity.min_distinct = v.min_distinct;
    options.similarity.max_posting_length = v.max_posting_length;
    options.profiler.exact_set_max = v.exact_set_max;
    auto engine = DiscoveryEngine::Build(repo, options);
    const SimilarityIndex& index = engine->similarity_index();
    StoredBuckets stored = ReadStoredBuckets(index);
    std::vector<std::pair<int, int>> pairs = index.AllCandidatePairs();
    EXPECT_EQ(pairs, SetBasedPairs(stored));
    EXPECT_FALSE(pairs.empty());
    // The lake reaches what each variant is for: the posting cap fills
    // (and so cuts) value buckets, and bands put columns together.
    EXPECT_LE(LongestBucket(stored.values), v.max_posting_length);
    if (v.max_posting_length < 256) {
      EXPECT_EQ(LongestBucket(stored.values), v.max_posting_length);
    }
    if (v.lsh_bands > 32) {
      EXPECT_GE(LongestBucket(stored.bands), 2u);
    }
    // Columns below min_distinct pair with nothing.
    const std::vector<ColumnProfile>& ps = engine->profiles();
    size_t ineligible = 0;
    for (size_t p = 0; p < ps.size(); ++p) {
      if (ps[p].stats.num_distinct >= v.min_distinct) continue;
      ++ineligible;
      for (const auto& [a, b] : pairs) {
        EXPECT_NE(a, static_cast<int>(p));
        EXPECT_NE(b, static_cast<int>(p));
      }
    }
    EXPECT_GT(ineligible, 0u);
  }
}

TEST_P(DiscoveryPropertyTest, CandidatePairsOfDisjointColumnsAreEmpty) {
  TableRepository repo = PairLake(GetParam() + 500, 6, /*disjoint=*/true);
  DiscoveryOptions options;
  options.similarity.lsh_bands = 128;
  auto engine = DiscoveryEngine::Build(repo, options);
  const SimilarityIndex& index = engine->similarity_index();
  EXPECT_TRUE(SetBasedPairs(ReadStoredBuckets(index)).empty());
  EXPECT_TRUE(index.AllCandidatePairs().empty());
  EXPECT_EQ(engine->num_joinable_column_pairs(), 0);
}

bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

// JC(a ⊆ b) through the one-direction formulas of util/minhash.h.
double OneDirection(const ColumnProfile& a, const ColumnProfile& b) {
  if (a.has_exact_set() && b.has_exact_set()) {
    return ExactContainment(a.distinct_hashes, b.distinct_hashes);
  }
  return EstimateContainment(a.signature, b.signature);
}

TEST_P(DiscoveryPropertyTest, PairedContainmentsMatchEachDirection) {
  TableRepository repo = PairLake(GetParam() + 600, 8, /*disjoint=*/false);
  // Exact sets everywhere, none (MinHash only), and a mix.
  for (int64_t exact_set_max : {int64_t{100000}, int64_t{0}, int64_t{8}}) {
    SCOPED_TRACE(exact_set_max);
    ProfilerOptions options;
    options.exact_set_max = exact_set_max;
    std::vector<ColumnProfile> ps = ProfileRepository(repo, options);
    size_t exact_pairs = 0, sketch_pairs = 0;
    for (const ColumnProfile& a : ps) {
      for (const ColumnProfile& b : ps) {
        auto [ab, ba] = ProfileContainments(a, b);
        EXPECT_TRUE(SameBits(ab, ProfileContainment(a, b)));
        EXPECT_TRUE(SameBits(ba, ProfileContainment(b, a)));
        EXPECT_TRUE(SameBits(ab, OneDirection(a, b)));
        EXPECT_TRUE(SameBits(ba, OneDirection(b, a)));
        if (a.has_exact_set() && b.has_exact_set()) {
          ++exact_pairs;
        } else {
          ++sketch_pairs;
        }
      }
    }
    EXPECT_EQ(exact_pairs > 0, exact_set_max > 0);
    EXPECT_EQ(sketch_pairs > 0, exact_set_max < 100000);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiscoveryPropertyTest,
                         ::testing::Range(1, 11));

}  // namespace
}  // namespace ver
