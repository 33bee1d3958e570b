// Join graph & join path index tests: edge discovery, path enumeration,
// hop limits, signatures, ranking.

#include <gtest/gtest.h>

#include "discovery/engine.h"
#include "util/check.h"

namespace ver {
namespace {

// Chain topology: a.k ⊆ b.k ⊆ c.k (identical domains), d isolated.
//   a(k, va)   b(k, vb)   c(k, vc)   d(x)
// All three k columns share the same 20 values, so every pair is joinable
// and 2-hop paths a-b-c exist.
TableRepository MakeChainRepo() {
  TableRepository repo;
  auto add = [&repo](const std::string& name, const std::string& key_attr,
                     const std::string& val_attr, int offset) {
    Schema schema;
    schema.AddAttribute(Attribute{key_attr, ValueType::kString});
    schema.AddAttribute(Attribute{val_attr, ValueType::kInt});
    Table t(name, schema);
    for (int i = 0; i < 20; ++i) {
      VER_CHECK_OK(t.AppendRow({Value::String("k" + std::to_string(i)),
                                Value::Int(offset + i)}));
    }
    t.InferColumnTypes();
    EXPECT_TRUE(repo.AddTable(std::move(t)).ok());
  };
  add("a", "k", "va", 0);
  add("b", "k", "vb", 100);
  add("c", "k", "vc", 200);
  Schema schema;
  schema.AddAttribute(Attribute{"x", ValueType::kString});
  Table d("d", schema);
  for (int i = 0; i < 5; ++i) {
    VER_CHECK_OK(d.AppendRow({Value::String("iso" + std::to_string(i))}));
  }
  EXPECT_TRUE(repo.AddTable(std::move(d)).ok());
  return repo;
}

class JoinPathTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    repo_ = new TableRepository(MakeChainRepo());
    engine_ = DiscoveryEngine::Build(*repo_).release();
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete repo_;
  }
  static int32_t Tid(const std::string& name) {
    return repo_->FindTable(name).value();
  }
  static TableRepository* repo_;
  static DiscoveryEngine* engine_;
};

TableRepository* JoinPathTest::repo_ = nullptr;
DiscoveryEngine* JoinPathTest::engine_ = nullptr;

TEST_F(JoinPathTest, SingleTableGraph) {
  std::vector<JoinGraph> graphs =
      engine_->GenerateJoinGraphs({Tid("a")}, 2);
  ASSERT_EQ(graphs.size(), 1u);
  EXPECT_TRUE(graphs[0].edges.empty());
  EXPECT_EQ(graphs[0].tables, std::vector<int32_t>{Tid("a")});
  EXPECT_DOUBLE_EQ(graphs[0].score, 1.0);
}

TEST_F(JoinPathTest, DirectPairHasOneHopGraph) {
  std::vector<JoinGraph> graphs =
      engine_->GenerateJoinGraphs({Tid("a"), Tid("b")}, 1);
  ASSERT_GE(graphs.size(), 1u);
  EXPECT_EQ(graphs[0].num_hops(), 1);
  EXPECT_EQ(graphs[0].tables.size(), 2u);
}

TEST_F(JoinPathTest, TwoHopsAddIndirectPaths) {
  std::vector<JoinGraph> one_hop =
      engine_->GenerateJoinGraphs({Tid("a"), Tid("c")}, 1);
  std::vector<JoinGraph> two_hop =
      engine_->GenerateJoinGraphs({Tid("a"), Tid("c")}, 2);
  // Direct a-c edge exists plus a-b-c path at 2 hops.
  EXPECT_GT(two_hop.size(), one_hop.size());
  bool saw_via_b = false;
  for (const JoinGraph& g : two_hop) {
    for (int32_t t : g.tables) {
      if (t == Tid("b")) saw_via_b = true;
    }
  }
  EXPECT_TRUE(saw_via_b);
}

TEST_F(JoinPathTest, IsolatedTableIsUnreachable) {
  EXPECT_TRUE(engine_->GenerateJoinGraphs({Tid("a"), Tid("d")}, 2).empty());
}

TEST_F(JoinPathTest, ThreeInputTablesAreConnected) {
  std::vector<JoinGraph> graphs =
      engine_->GenerateJoinGraphs({Tid("a"), Tid("b"), Tid("c")}, 2);
  ASSERT_GE(graphs.size(), 1u);
  for (const JoinGraph& g : graphs) {
    EXPECT_GE(g.tables.size(), 3u);
    EXPECT_GE(g.num_hops(), 2);
  }
}

TEST_F(JoinPathTest, GraphsAreDeduplicated) {
  std::vector<JoinGraph> graphs =
      engine_->GenerateJoinGraphs({Tid("a"), Tid("c")}, 2);
  std::set<std::string> signatures;
  for (const JoinGraph& g : graphs) {
    EXPECT_TRUE(signatures.insert(g.Signature()).second)
        << "duplicate graph " << g.ToString(*repo_);
  }
}

TEST_F(JoinPathTest, ScoresAreSortedDescending) {
  // Ties on score must rank by signature ascending. {a, c} has no tie;
  // {a, b, c} spans the triangle with three two-edge graphs of one score.
  int ties = 0;
  for (const std::vector<int32_t>& tables :
       {std::vector<int32_t>{Tid("a"), Tid("c")},
        std::vector<int32_t>{Tid("a"), Tid("b"), Tid("c")}}) {
    std::vector<JoinGraph> graphs = engine_->GenerateJoinGraphs(tables, 2);
    for (size_t i = 1; i < graphs.size(); ++i) {
      EXPECT_GE(graphs[i - 1].score, graphs[i].score);
      if (graphs[i - 1].score != graphs[i].score) continue;
      EXPECT_LT(graphs[i - 1].Signature(), graphs[i].Signature());
      ++ties;
    }
  }
  EXPECT_GE(ties, 2);
}

TEST_F(JoinPathTest, FewerHopsRankHigher) {
  std::vector<JoinGraph> graphs =
      engine_->GenerateJoinGraphs({Tid("a"), Tid("c")}, 2);
  ASSERT_GE(graphs.size(), 2u);
  // The direct 1-hop graph must outrank any 2-hop graph with equal key
  // quality (key columns here are identical domains, all unique).
  EXPECT_EQ(graphs[0].num_hops(), 1);
}

TEST_F(JoinPathTest, AdjacencyQueries) {
  const JoinPathIndex& index = engine_->join_path_index();
  std::vector<int32_t> from_a = index.AdjacentTables(Tid("a"));
  EXPECT_EQ(from_a.size(), 2u);  // b and c
  EXPECT_TRUE(index.AdjacentTables(Tid("d")).empty());
  EXPECT_FALSE(index.EdgesBetween(Tid("a"), Tid("b")).empty());
  EXPECT_TRUE(index.EdgesBetween(Tid("a"), Tid("d")).empty());
}

// ---------------------------- JoinGraph unit ----------------------------

TEST(JoinGraphTest, SignatureIsOrientationInvariant) {
  JoinEdge e1{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0};
  JoinEdge e2{ColumnRef{1, 0}, ColumnRef{0, 0}, 1.0, 1.0};
  JoinGraph g1{{e1}, {0, 1}, 0};
  JoinGraph g2{{e2}, {0, 1}, 0};
  EXPECT_EQ(g1.Signature(), g2.Signature());
}

TEST(JoinGraphTest, SignatureIsEdgeOrderInvariant) {
  JoinEdge e1{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0};
  JoinEdge e2{ColumnRef{1, 1}, ColumnRef{2, 0}, 1.0, 1.0};
  JoinGraph g1{{e1, e2}, {0, 1, 2}, 0};
  JoinGraph g2{{e2, e1}, {0, 1, 2}, 0};
  EXPECT_EQ(g1.Signature(), g2.Signature());
}

TEST(JoinGraphTest, SingleTableSignaturesDifferByTable) {
  JoinGraph g1{{}, {0}, 0};
  JoinGraph g2{{}, {1}, 0};
  EXPECT_NE(g1.Signature(), g2.Signature());
}

TEST(JoinGraphTest, NormalizeCollectsTables) {
  JoinGraph g;
  g.edges.push_back(JoinEdge{ColumnRef{3, 0}, ColumnRef{1, 2}, 0.9, 0.8});
  NormalizeJoinGraph(&g, {5});
  EXPECT_EQ(g.tables, (std::vector<int32_t>{1, 3, 5}));
  EXPECT_NE(g.score, 0.0);
}

TEST(JoinGraphTest, ScorePenalizesHops) {
  JoinEdge good{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0};
  JoinGraph one{{good}, {0, 1}, 0};
  JoinGraph two{{good, JoinEdge{ColumnRef{1, 0}, ColumnRef{2, 0}, 1.0, 1.0}},
                {0, 1, 2},
                0};
  EXPECT_GT(ScoreJoinGraph(one), ScoreJoinGraph(two));
}

TEST(JoinGraphTest, ScoreRewardsKeyQuality) {
  JoinGraph strong{{JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0}},
                   {0, 1},
                   0};
  JoinGraph weak{{JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 0.3}},
                 {0, 1},
                 0};
  EXPECT_GT(ScoreJoinGraph(strong), ScoreJoinGraph(weak));
}

}  // namespace
}  // namespace ver
