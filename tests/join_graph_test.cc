// Join graph & join path index tests: edge discovery, path enumeration,
// hop limits, signatures, ranking.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

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

TEST_F(JoinPathTest, NoRouteBelowOneHop) {
  // max_hops < 1 allows no join edge, so only a single table connects.
  EXPECT_TRUE(engine_->GenerateJoinGraphs({Tid("a"), Tid("c")}, 0).empty());
  EXPECT_TRUE(engine_->GenerateJoinGraphs({Tid("a"), Tid("c")}, -1).empty());
  std::vector<JoinGraph> single = engine_->GenerateJoinGraphs({Tid("a")}, -1);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_TRUE(single[0].edges.empty());
  EXPECT_EQ(single[0].tables, std::vector<int32_t>{Tid("a")});
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

// ---------------------- GENERATE-JOIN-GRAPHS reference ----------------------

// Five tables t0..t4 over two key domains: every table has an x column
// (12 values) and a y column (6 + i values, nested across tables), so each
// table pair joins on exactly two column pairs, x-x and y-y. Row counts
// grow with i, so key quality (max uniqueness) falls with the lower table
// id and many graphs tie on score.
TableRepository MakeCompleteRepo() {
  TableRepository repo;
  for (int i = 0; i < 5; ++i) {
    Schema schema;
    schema.AddAttribute(Attribute{"x", ValueType::kString});
    schema.AddAttribute(Attribute{"y", ValueType::kString});
    Table t("t" + std::to_string(i), schema);
    const int rows = 12 + 3 * i;
    for (int r = 0; r < rows; ++r) {
      const int y = r % (6 + i);
      VER_CHECK_OK(t.AppendRow({Value::String("x" + std::to_string(r % 12)),
                                Value::String("y" + std::to_string(y))}));
    }
    t.InferColumnTypes();
    EXPECT_TRUE(repo.AddTable(std::move(t)).ok());
  }
  return repo;
}

// GENERATE-JOIN-GRAPHS written naively, as a reference for the index:
// recursive DFS over simple table paths, a capped cartesian product per
// hop, composition along the chain of sorted tables capped at the total,
// string signatures for dedup, and a sort on (score, Signature()).
std::vector<JoinGraph> ReferenceJoinGraphs(const JoinPathIndex& index,
                                           const JoinPathOptions& caps,
                                           std::vector<int32_t> tables,
                                           int max_hops) {
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  if (tables.empty()) return {};
  if (tables.size() == 1) {
    JoinGraph g;
    NormalizeJoinGraph(&g, tables);
    return {g};
  }
  const size_t per_path = static_cast<size_t>(caps.max_graphs_per_path);
  const size_t total = static_cast<size_t>(caps.max_total_graphs);
  std::vector<JoinGraph> partial{JoinGraph{}};
  for (size_t i = 0; i + 1 < tables.size(); ++i) {
    const int32_t to = tables[i + 1];
    std::vector<std::vector<int32_t>> paths;
    std::vector<int32_t> current{tables[i]};
    std::function<void(int32_t, int)> dfs = [&](int32_t node, int hops_left) {
      if (node == to) {
        paths.push_back(current);
        return;
      }
      if (hops_left <= 0) return;
      for (int32_t next : index.AdjacentTables(node)) {
        if (std::count(current.begin(), current.end(), next) > 0) continue;
        current.push_back(next);
        dfs(next, hops_left - 1);
        current.pop_back();
      }
    };
    dfs(tables[i], max_hops);
    if (paths.empty()) return {};
    std::vector<JoinGraph> segment;
    for (const std::vector<int32_t>& path : paths) {
      std::vector<JoinGraph> expanded{JoinGraph{}};
      for (size_t h = 0; h + 1 < path.size(); ++h) {
        std::vector<JoinGraph> next;
        for (const JoinGraph& g : expanded) {
          for (const JoinEdge& e : index.EdgesBetween(path[h], path[h + 1])) {
            if (next.size() >= per_path) break;
            JoinGraph longer = g;
            longer.edges.push_back(e);
            next.push_back(longer);
          }
        }
        expanded = next;
      }
      segment.insert(segment.end(), expanded.begin(), expanded.end());
      if (segment.size() >= total) break;
    }
    std::vector<JoinGraph> next;
    for (const JoinGraph& g : partial) {
      for (const JoinGraph& seg : segment) {
        if (next.size() >= total) break;
        JoinGraph joined = g;
        joined.edges.insert(joined.edges.end(), seg.edges.begin(),
                            seg.edges.end());
        next.push_back(joined);
      }
    }
    partial = next;
  }
  std::set<std::string> seen;
  std::vector<JoinGraph> out;
  for (JoinGraph& g : partial) {
    std::sort(g.edges.begin(), g.edges.end(),
              [](const JoinEdge& a, const JoinEdge& b) {
                return a.CanonicalEncoding() < b.CanonicalEncoding();
              });
    g.edges.erase(std::unique(g.edges.begin(), g.edges.end(),
                              [](const JoinEdge& a, const JoinEdge& b) {
                                return a.CanonicalEncoding() ==
                                       b.CanonicalEncoding();
                              }),
                  g.edges.end());
    NormalizeJoinGraph(&g, tables);
    if (seen.insert(g.Signature()).second) out.push_back(g);
  }
  std::sort(out.begin(), out.end(), [](const JoinGraph& a, const JoinGraph& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.Signature() < b.Signature();
  });
  return out;
}

TEST(JoinPathReferenceTest, MatchesNaiveEnumeration) {
  const TableRepository repo = MakeCompleteRepo();
  JoinPathOptions uncapped;
  JoinPathOptions capped;
  capped.max_graphs_per_path = 3;
  capped.max_total_graphs = 5;
  JoinPathOptions path_capped;
  path_capped.max_graphs_per_path = 3;
  int64_t compared = 0;
  for (const JoinPathOptions& caps : {uncapped, capped, path_capped}) {
    DiscoveryOptions options;
    options.join_paths = caps;
    std::unique_ptr<DiscoveryEngine> engine =
        DiscoveryEngine::Build(repo, options);
    const JoinPathIndex& index = engine->join_path_index();
    for (int32_t a = 0; a < 5; ++a) {
      for (int32_t b = 0; b < 5; ++b) {
        if (a != b) {
          ASSERT_EQ(index.EdgesBetween(a, b).size(), 2u);
        }
      }
    }
    for (const std::vector<int32_t>& tables :
         {std::vector<int32_t>{0, 1}, std::vector<int32_t>{3, 1},
          std::vector<int32_t>{0, 4}, std::vector<int32_t>{0, 1, 2},
          std::vector<int32_t>{4, 2, 0}, std::vector<int32_t>{1, 3, 4}}) {
      for (int max_hops = -1; max_hops <= 3; ++max_hops) {
        SCOPED_TRACE(::testing::Message()
                     << "caps " << caps.max_graphs_per_path << "/"
                     << caps.max_total_graphs << ", " << tables.size()
                     << " tables from " << tables[0] << ", rho " << max_hops);
        const std::vector<JoinGraph> want =
            ReferenceJoinGraphs(index, caps, tables, max_hops);
        const std::vector<JoinGraph> got =
            engine->GenerateJoinGraphs(tables, max_hops);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          SCOPED_TRACE(i);
          ASSERT_EQ(got[i].edges.size(), want[i].edges.size());
          for (size_t e = 0; e < want[i].edges.size(); ++e) {
            EXPECT_EQ(got[i].edges[e].left, want[i].edges[e].left);
            EXPECT_EQ(got[i].edges[e].right, want[i].edges[e].right);
            EXPECT_EQ(got[i].edges[e].containment,
                      want[i].edges[e].containment);
            EXPECT_EQ(got[i].edges[e].key_quality,
                      want[i].edges[e].key_quality);
          }
          EXPECT_EQ(got[i].tables, want[i].tables);
          EXPECT_EQ(got[i].score, want[i].score);
        }
        compared += static_cast<int64_t>(want.size());
      }
    }
  }
  // The fixture must exercise the caps and the composition, not only
  // direct pairs.
  EXPECT_GT(compared, 5000);
}

// ------------------------- Signature order and hash -------------------------

JoinEdge EdgeOf(uint64_t a, uint64_t b) {
  auto decode = [](uint64_t e) {
    return ColumnRef{static_cast<int32_t>(static_cast<uint32_t>(e >> 32)),
                     static_cast<int32_t>(static_cast<uint32_t>(e))};
  };
  return JoinEdge{decode(a), decode(b), 1.0, 1.0};
}

int Sign(int v) { return (v > 0) - (v < 0); }

// Checks CompareSignatures, SignatureKeys and SignatureHash against the
// Signature() strings on every ordered pair of `graphs`, and that sorting
// by the keys orders the graphs as sorting by the strings does.
void ExpectAgreesWithSignatures(const std::vector<JoinGraph>& graphs) {
  SignatureKeys keys;
  std::vector<std::string> signatures;
  for (const JoinGraph& g : graphs) {
    keys.Append(g);
    signatures.push_back(g.Signature());
  }
  for (size_t i = 0; i < graphs.size(); ++i) {
    for (size_t j = 0; j < graphs.size(); ++j) {
      const int want = Sign(signatures[i].compare(signatures[j]));
      ASSERT_EQ(CompareSignatures(graphs[i], graphs[j]), want)
          << signatures[i] << " vs " << signatures[j];
      ASSERT_EQ(keys.Compare(i, j), want)
          << signatures[i] << " vs " << signatures[j];
      ASSERT_EQ(SignatureHash(graphs[i]) == SignatureHash(graphs[j]),
                want == 0)
          << signatures[i] << " vs " << signatures[j];
    }
  }
  std::vector<size_t> by_key(graphs.size());
  for (size_t i = 0; i < by_key.size(); ++i) by_key[i] = i;
  std::vector<size_t> by_string = by_key;
  std::stable_sort(by_key.begin(), by_key.end(), [&](size_t a, size_t b) {
    return keys.Compare(a, b) < 0;
  });
  std::stable_sort(by_string.begin(), by_string.end(),
                   [&](size_t a, size_t b) {
                     return signatures[a] < signatures[b];
                   });
  EXPECT_EQ(by_key, by_string);
}

TEST(JoinGraphTest, SignatureOrderMatchesStringsOnBoundaryCases) {
  // Encodings at digit-count boundaries (9/10, 99/100, 2^32 - 1 / 2^32),
  // sharing digit prefixes (12/120/129), and of 19 and 20 digits (a
  // negative table id sets the top bits).
  const std::vector<uint64_t> encodings = {
      0,
      1,
      9,
      10,
      11,
      12,
      99,
      100,
      120,
      129,
      4294967295ULL,
      4294967296ULL,
      999999999999999999ULL,
      1000000000000000000ULL,
      9223372036854775808ULL,
      9999999999999999999ULL,
      10000000000000000000ULL,
      18446744069414584320ULL,
      18446744073709551615ULL};
  std::vector<JoinGraph> graphs;
  for (uint64_t a : encodings) {
    for (uint64_t b : {uint64_t{1}, uint64_t{12}, uint64_t{129},
                       uint64_t{18446744073709551615ULL}}) {
      graphs.push_back(JoinGraph{{EdgeOf(a, b)}, {}, 0});
    }
  }
  // Two-edge graphs, given unsorted and reoriented.
  graphs.push_back(JoinGraph{{EdgeOf(129, 3), EdgeOf(12, 120)}, {}, 0});
  graphs.push_back(JoinGraph{{EdgeOf(120, 12), EdgeOf(3, 129)}, {}, 0});
  graphs.push_back(JoinGraph{{EdgeOf(12, 120), EdgeOf(12, 1)}, {}, 0});
  graphs.push_back(JoinGraph{{EdgeOf(1, 12), EdgeOf(120, 12)}, {}, 0});
  // Edgeless graphs: one or more table ids, including table 0, negative
  // ids (their '-' sorts between ',' and the digits) and no table at all.
  for (std::vector<int32_t> tables :
       {std::vector<int32_t>{}, std::vector<int32_t>{0},
        std::vector<int32_t>{1}, std::vector<int32_t>{9},
        std::vector<int32_t>{10}, std::vector<int32_t>{12},
        std::vector<int32_t>{120}, std::vector<int32_t>{129},
        std::vector<int32_t>{1, 2}, std::vector<int32_t>{12, 0},
        std::vector<int32_t>{0, 12}, std::vector<int32_t>{-1},
        std::vector<int32_t>{-12}, std::vector<int32_t>{-120},
        std::vector<int32_t>{-1, 5},
        std::vector<int32_t>{std::numeric_limits<int32_t>::max()},
        std::vector<int32_t>{std::numeric_limits<int32_t>::min()}}) {
    graphs.push_back(JoinGraph{{}, tables, 0});
  }
  ExpectAgreesWithSignatures(graphs);
}

TEST(JoinGraphTest, SignatureOrderMatchesStringsOnRandomPairs) {
  // Table ids and column indexes whose encodings cross digit-count
  // boundaries or share digit prefixes; -1 and INT32_MIN reach 20 and 19
  // digits as table ids and make 2^32 - 1 and 2^31 as column indexes.
  const std::vector<int32_t> ids = {0,   1,    2,    9,    10,     11,
                                    12,  19,   99,   100,  120,    129,
                                    999, 1000, 4095, 4096, -1,     -2,
                                    -12, std::numeric_limits<int32_t>::max(),
                                    std::numeric_limits<int32_t>::min()};
  std::mt19937_64 rng(20231017);
  auto pick_id = [&] {
    return rng() % 4 == 0 ? static_cast<int32_t>(rng())
                          : ids[rng() % ids.size()];
  };
  auto random_graph = [&] {
    JoinGraph g;
    if (rng() % 4 == 0) {
      for (uint64_t n = rng() % 4; n > 0; --n) g.tables.push_back(pick_id());
      return g;
    }
    for (uint64_t n = 1 + rng() % 3; n > 0; --n) {
      g.edges.push_back(JoinEdge{ColumnRef{pick_id(), pick_id()},
                                 ColumnRef{pick_id(), pick_id()}, 1.0, 1.0});
    }
    return g;
  };
  // Half the second graphs share a signature or a prefix with the first:
  // its edges reordered and reoriented, or one id changed.
  auto related_graph = [&](JoinGraph g) {
    std::shuffle(g.edges.begin(), g.edges.end(), rng);
    for (JoinEdge& e : g.edges) {
      if (rng() % 2 == 0) std::swap(e.left, e.right);
    }
    if (rng() % 2 == 0) {
      if (!g.edges.empty()) {
        JoinEdge& e = g.edges[rng() % g.edges.size()];
        (rng() % 2 == 0 ? e.left : e.right).column_index = pick_id();
      } else if (!g.tables.empty()) {
        g.tables[rng() % g.tables.size()] = pick_id();
      }
    }
    return g;
  };
  constexpr int kPairs = 1 << 20;
  constexpr int kBatch = 1 << 10;
  int64_t equal = 0, less = 0, greater = 0;
  for (int batch = 0; batch < kPairs / kBatch; ++batch) {
    std::vector<JoinGraph> graphs;
    SignatureKeys keys;
    for (int i = 0; i < kBatch; ++i) {
      JoinGraph a = random_graph();
      JoinGraph b = rng() % 2 == 0 ? related_graph(a) : random_graph();
      keys.Append(a);
      keys.Append(b);
      const std::string sa = a.Signature(), sb = b.Signature();
      const int want = Sign(sa.compare(sb));
      ASSERT_EQ(CompareSignatures(a, b), want) << sa << " vs " << sb;
      ASSERT_EQ(keys.Compare(keys.size() - 2, keys.size() - 1), want)
          << sa << " vs " << sb;
      ASSERT_EQ(keys.Compare(keys.size() - 1, keys.size() - 2), -want)
          << sa << " vs " << sb;
      ASSERT_EQ(SignatureHash(a) == SignatureHash(b), want == 0)
          << sa << " vs " << sb;
      (want == 0 ? equal : want < 0 ? less : greater) += 1;
      if (i < 64) {
        graphs.push_back(std::move(a));
        graphs.push_back(std::move(b));
      }
    }
    // The sort key also orders a batch's first graphs as the strings do.
    if (batch % 64 == 0) ExpectAgreesWithSignatures(graphs);
  }
  EXPECT_GT(equal, kPairs / 10);
  EXPECT_GT(less, kPairs / 10);
  EXPECT_GT(greater, kPairs / 10);
}

}  // namespace
}  // namespace ver
