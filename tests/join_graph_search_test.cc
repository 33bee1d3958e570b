// JOIN-GRAPH-SEARCH (Algorithm 5) unit tests: combination enumeration,
// the non-joinable pruning cache, funnel statistics, ranking, and the
// materialization of the ranked candidates.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/join_graph_search.h"

namespace ver {
namespace {

// Two joinable clusters {a, b} (domain X) and {c, d} (domain Y), plus an
// isolated table e. a-b join; c-d join; nothing joins across clusters.
TableRepository MakeRepo() {
  TableRepository repo;
  auto add = [&repo](const std::string& name, const std::string& key_prefix,
                     int count) {
    Schema schema;
    schema.AddAttribute(Attribute{"k", ValueType::kString});
    schema.AddAttribute(Attribute{"v_" + name, ValueType::kString});
    Table t(name, schema);
    for (int i = 0; i < count; ++i) {
      (void)t.AppendRow(
          {Value::String(key_prefix + std::to_string(i)),
           Value::String(name + "_" + std::to_string(i))});
    }
    t.InferColumnTypes();
    EXPECT_TRUE(repo.AddTable(std::move(t)).ok());
  };
  add("a", "x", 12);
  add("b", "x", 12);
  add("c", "y", 12);
  add("d", "y", 12);
  add("e", "z", 12);
  return repo;
}

ColumnSelectionResult Candidates(const TableRepository& repo,
                                 std::vector<std::pair<int32_t, int>> cols) {
  (void)repo;
  ColumnSelectionResult result;
  ColumnCluster cluster;
  for (auto [t, c] : cols) {
    cluster.columns.push_back(ScoredColumn{ColumnRef{t, c}, 1});
  }
  cluster.score = 1;
  result.clusters = {cluster};
  result.selected_clusters = result.clusters;
  result.candidates = cluster.columns;
  return result;
}

class JoinGraphSearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    repo_ = new TableRepository(MakeRepo());
    engine_ = DiscoveryEngine::Build(*repo_).release();
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete repo_;
  }
  // Step 2's materialization of a search's ranked candidates.
  static std::vector<View> Materialize(const JoinGraphSearchResult& result,
                                       int64_t* failures = nullptr) {
    return MaterializeCandidates(*repo_, result.candidates,
                                 JoinGraphSearchOptions(), failures);
  }
  static TableRepository* repo_;
  static DiscoveryEngine* engine_;
};

TableRepository* JoinGraphSearchTest::repo_ = nullptr;
DiscoveryEngine* JoinGraphSearchTest::engine_ = nullptr;

TEST_F(JoinGraphSearchTest, JoinableCombinationProducesViews) {
  // attr0 candidates: a.v; attr1 candidates: b.v — joinable via k.
  std::vector<ColumnSelectionResult> per_attr = {
      Candidates(*repo_, {{0, 1}}), Candidates(*repo_, {{1, 1}})};
  JoinGraphSearchResult result =
      SearchJoinGraphs(*engine_, per_attr, JoinGraphSearchOptions());
  EXPECT_EQ(result.num_combinations, 1);
  EXPECT_EQ(result.num_joinable_groups, 1);
  int64_t failures = 0;
  std::vector<View> views = Materialize(result, &failures);
  EXPECT_EQ(failures, 0);
  ASSERT_GE(views.size(), 1u);
  EXPECT_EQ(views[0].table.num_columns(), 2);
  EXPECT_EQ(views[0].table.num_rows(), 12);
}

TEST_F(JoinGraphSearchTest, NonJoinablePairsCachedAndPruned) {
  // attr0: columns from a and c; attr1: column from e (isolated):
  // every combination is non-joinable; the cache prevents re-probing.
  std::vector<ColumnSelectionResult> per_attr = {
      Candidates(*repo_, {{0, 1}, {2, 1}}), Candidates(*repo_, {{4, 1}})};
  JoinGraphSearchResult result =
      SearchJoinGraphs(*engine_, per_attr, JoinGraphSearchOptions());
  EXPECT_EQ(result.num_joinable_groups, 0);
  EXPECT_EQ(result.num_join_graphs, 0);
  EXPECT_TRUE(result.candidates.empty());
}

TEST_F(JoinGraphSearchTest, MixedCombinationsKeepJoinableOnes) {
  // attr0: a.v or c.v; attr1: b.v or d.v. Joinable combos: (a,b), (c,d).
  std::vector<ColumnSelectionResult> per_attr = {
      Candidates(*repo_, {{0, 1}, {2, 1}}),
      Candidates(*repo_, {{1, 1}, {3, 1}})};
  JoinGraphSearchResult result =
      SearchJoinGraphs(*engine_, per_attr, JoinGraphSearchOptions());
  EXPECT_EQ(result.num_combinations, 4);
  EXPECT_EQ(result.num_joinable_groups, 2);
  EXPECT_GE(Materialize(result).size(), 2u);
}

TEST_F(JoinGraphSearchTest, SameTableCombinationIsSingleTableView) {
  std::vector<ColumnSelectionResult> per_attr = {
      Candidates(*repo_, {{0, 0}}), Candidates(*repo_, {{0, 1}})};
  JoinGraphSearchResult result =
      SearchJoinGraphs(*engine_, per_attr, JoinGraphSearchOptions());
  std::vector<View> views = Materialize(result);
  ASSERT_EQ(views.size(), 1u);
  EXPECT_TRUE(views[0].graph.edges.empty());
  EXPECT_DOUBLE_EQ(views[0].score, 1.0);
}

// Ranked by score descending, ties by graph signature ascending. Returns
// how many adjacent pairs tie on score with different signatures.
int ExpectRanked(const std::vector<ViewCandidate>& candidates) {
  int ties = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    const ViewCandidate& prev = candidates[i - 1];
    const ViewCandidate& cur = candidates[i];
    EXPECT_GE(prev.score, cur.score) << i;
    if (prev.score != cur.score) continue;
    EXPECT_LE(prev.graph.Signature(), cur.graph.Signature()) << i;
    if (prev.graph.Signature() != cur.graph.Signature()) ++ties;
  }
  return ties;
}

TEST_F(JoinGraphSearchTest, SymmetricCombinationsYieldEachCandidateOnce) {
  // Both attributes draw a.v and b.v, so every column pair comes up in
  // both orders. A graph signature and a projection multiset identify a
  // candidate: each must come out once, and materialization keeps all.
  std::vector<ColumnSelectionResult> per_attr = {
      Candidates(*repo_, {{0, 1}, {1, 1}}),
      Candidates(*repo_, {{1, 1}, {0, 1}})};
  JoinGraphSearchResult result =
      SearchJoinGraphs(*engine_, per_attr, JoinGraphSearchOptions());
  ASSERT_FALSE(result.candidates.empty());
  std::set<std::pair<std::string, std::vector<ColumnRef>>> seen;
  bool joined = false;
  for (const ViewCandidate& cand : result.candidates) {
    std::vector<ColumnRef> projection = cand.projection;
    std::sort(projection.begin(), projection.end());
    EXPECT_TRUE(seen.emplace(cand.graph.Signature(), projection).second)
        << cand.graph.Signature();
    joined = joined || !cand.graph.edges.empty();
  }
  EXPECT_TRUE(joined);  // a.v and b.v join on k in one of the two orders
  EXPECT_EQ(Materialize(result).size(), result.candidates.size());
}

TEST_F(JoinGraphSearchTest, CandidatesSortedByScore) {
  std::vector<ColumnSelectionResult> per_attr = {
      Candidates(*repo_, {{0, 0}, {0, 1}}),
      Candidates(*repo_, {{1, 1}})};
  JoinGraphSearchResult result =
      SearchJoinGraphs(*engine_, per_attr, JoinGraphSearchOptions());
  ExpectRanked(result.candidates);

  // Three tables over one key domain: every spanning pair of the triangle
  // a-b-c is a two-edge graph of the same score, so ranking must fall back
  // to the signature order.
  TableRepository triangle;
  for (const char* name : {"a", "b", "c"}) {
    Schema schema;
    schema.AddAttribute(Attribute{"k", ValueType::kString});
    schema.AddAttribute(Attribute{std::string("v_") + name,
                                  ValueType::kString});
    Table t(name, schema);
    for (int i = 0; i < 12; ++i) {
      (void)t.AppendRow({Value::String("x" + std::to_string(i)),
                         Value::String(name + std::to_string(i))});
    }
    t.InferColumnTypes();
    ASSERT_TRUE(triangle.AddTable(std::move(t)).ok());
  }
  std::unique_ptr<DiscoveryEngine> engine = DiscoveryEngine::Build(triangle);
  std::vector<ColumnSelectionResult> spanning = {
      Candidates(triangle, {{0, 1}}), Candidates(triangle, {{1, 1}}),
      Candidates(triangle, {{2, 1}})};
  JoinGraphSearchResult tied =
      SearchJoinGraphs(*engine, spanning, JoinGraphSearchOptions());
  EXPECT_GE(ExpectRanked(tied.candidates), 2);
}

TEST_F(JoinGraphSearchTest, CombinationGuardStopsEnumeration) {
  std::vector<ColumnSelectionResult> per_attr = {
      Candidates(*repo_, {{0, 0}, {0, 1}, {1, 0}, {1, 1}}),
      Candidates(*repo_, {{2, 0}, {2, 1}, {3, 0}, {3, 1}})};
  JoinGraphSearchOptions options;
  options.max_combinations = 3;
  JoinGraphSearchResult result =
      SearchJoinGraphs(*engine_, per_attr, options);
  EXPECT_LE(result.num_combinations, 3);
}

TEST_F(JoinGraphSearchTest, EmptyCandidateListYieldsNothing) {
  std::vector<ColumnSelectionResult> per_attr = {
      Candidates(*repo_, {{0, 0}}), Candidates(*repo_, {})};
  JoinGraphSearchResult result =
      SearchJoinGraphs(*engine_, per_attr, JoinGraphSearchOptions());
  EXPECT_EQ(result.num_combinations, 0);
  EXPECT_TRUE(result.candidates.empty());
}

}  // namespace
}  // namespace ver
