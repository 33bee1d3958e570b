// Materializer tests: hash-join chains validated against a brute-force
// nested-loop reference, plus projection, distinct, view ids and guard
// rails.

#include <gtest/gtest.h>

#include <set>

#include "core/join_graph_search.h"
#include "engine/materializer.h"
#include "util/rng.h"
#include "util/check.h"

namespace ver {
namespace {

Schema MakeSchema(std::vector<std::string> names) {
  Schema s;
  for (std::string& n : names) {
    s.AddAttribute(Attribute{std::move(n), ValueType::kString});
  }
  return s;
}

// Reference implementation: nested-loop join of two tables on one column
// pair followed by distinct projection; returns sorted row texts.
std::multiset<std::string> ReferenceJoin(const Table& left, int lcol,
                                         const Table& right, int rcol,
                                         const std::vector<int>& lproj,
                                         const std::vector<int>& rproj) {
  std::set<std::string> rows;
  for (int64_t i = 0; i < left.num_rows(); ++i) {
    for (int64_t j = 0; j < right.num_rows(); ++j) {
      CellView lv = left.cell(i, lcol);
      if (lv.is_null() || !(lv == right.cell(j, rcol))) continue;
      std::string row;
      for (int c : lproj) row += left.cell(i, c).ToText() + "|";
      for (int c : rproj) row += right.cell(j, c).ToText() + "|";
      rows.insert(row);
    }
  }
  return {rows.begin(), rows.end()};
}

std::multiset<std::string> ViewRows(const Table& t) {
  std::multiset<std::string> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string row;
    for (int c = 0; c < t.num_columns(); ++c) {
      row += t.cell(r, c).ToText() + "|";
    }
    rows.insert(row);
  }
  return rows;
}

TEST(MaterializerTest, SingleTableProjection) {
  TableRepository repo;
  Table t("t", MakeSchema({"a", "b"}));
  VER_CHECK_OK(t.AppendRow({Value::String("x"), Value::String("1")}));
  VER_CHECK_OK(t.AppendRow({Value::String("x"), Value::String("1")}));
  VER_CHECK_OK(t.AppendRow({Value::String("y"), Value::String("2")}));
  ASSERT_TRUE(repo.AddTable(std::move(t)).ok());

  JoinGraph graph;
  graph.tables = {0};
  Materializer m(&repo);
  Result<Table> view = m.Materialize(graph, {ColumnRef{0, 0}},
                                     MaterializeOptions(), "v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_rows(), 2);  // distinct by default
}

TEST(MaterializerTest, TwoTableHashJoinMatchesReference) {
  TableRepository repo;
  Table left("left", MakeSchema({"k", "lval"}));
  VER_CHECK_OK(left.AppendRow({Value::String("a"), Value::String("l1")}));
  VER_CHECK_OK(left.AppendRow({Value::String("b"), Value::String("l2")}));
  VER_CHECK_OK(left.AppendRow({Value::String("c"), Value::String("l3")}));
  VER_CHECK_OK(left.AppendRow({Value::String("a"), Value::String("l4")}));
  Table right("right", MakeSchema({"k", "rval"}));
  VER_CHECK_OK(right.AppendRow({Value::String("a"), Value::String("r1")}));
  VER_CHECK_OK(right.AppendRow({Value::String("b"), Value::String("r2")}));
  VER_CHECK_OK(right.AppendRow({Value::String("b"), Value::String("r3")}));
  VER_CHECK_OK(right.AppendRow({Value::String("z"), Value::String("r4")}));
  const Table lcopy = left;
  const Table rcopy = right;
  ASSERT_TRUE(repo.AddTable(std::move(left)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(right)).ok());

  JoinGraph graph;
  graph.edges.push_back(JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0});
  NormalizeJoinGraph(&graph, {});
  Materializer m(&repo);
  Result<Table> view = m.Materialize(
      graph, {ColumnRef{0, 1}, ColumnRef{1, 1}}, MaterializeOptions(), "v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(ViewRows(view.value()),
            ReferenceJoin(lcopy, 0, rcopy, 0, {1}, {1}));
}

TEST(MaterializerTest, NullKeysNeverJoin) {
  TableRepository repo;
  Table left("left", MakeSchema({"k"}));
  VER_CHECK_OK(left.AppendRow({Value::Null()}));
  VER_CHECK_OK(left.AppendRow({Value::String("a")}));
  Table right("right", MakeSchema({"k"}));
  VER_CHECK_OK(right.AppendRow({Value::Null()}));
  VER_CHECK_OK(right.AppendRow({Value::String("a")}));
  ASSERT_TRUE(repo.AddTable(std::move(left)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(right)).ok());

  JoinGraph graph;
  graph.edges.push_back(JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0});
  NormalizeJoinGraph(&graph, {});
  Materializer m(&repo);
  Result<Table> view = m.Materialize(
      graph, {ColumnRef{0, 0}, ColumnRef{1, 0}}, MaterializeOptions(), "v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_rows(), 1);  // only "a" = "a"
}

TEST(MaterializerTest, ChainJoinThreeTables) {
  TableRepository repo;
  Table a("a", MakeSchema({"k", "va"}));
  Table b("b", MakeSchema({"k", "k2"}));
  Table c("c", MakeSchema({"k2", "vc"}));
  VER_CHECK_OK(a.AppendRow({Value::String("x"), Value::String("a1")}));
  VER_CHECK_OK(a.AppendRow({Value::String("y"), Value::String("a2")}));
  VER_CHECK_OK(b.AppendRow({Value::String("x"), Value::String("m1")}));
  VER_CHECK_OK(b.AppendRow({Value::String("y"), Value::String("m2")}));
  VER_CHECK_OK(c.AppendRow({Value::String("m1"), Value::String("c1")}));
  VER_CHECK_OK(c.AppendRow({Value::String("m2"), Value::String("c2")}));
  ASSERT_TRUE(repo.AddTable(std::move(a)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(b)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(c)).ok());

  JoinGraph graph;
  graph.edges.push_back(JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0});
  graph.edges.push_back(JoinEdge{ColumnRef{1, 1}, ColumnRef{2, 0}, 1.0, 1.0});
  NormalizeJoinGraph(&graph, {});
  Materializer m(&repo);
  Result<Table> view = m.Materialize(
      graph, {ColumnRef{0, 1}, ColumnRef{2, 1}}, MaterializeOptions(), "v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_rows(), 2);
  EXPECT_EQ(view->at(0, 0).AsString(), "a1");
  EXPECT_EQ(view->at(0, 1).AsString(), "c1");
}

TEST(MaterializerTest, CycleEdgeFiltersBindings) {
  // Two edges between the same pair of tables: both must hold.
  TableRepository repo;
  Table a("a", MakeSchema({"k1", "k2"}));
  Table b("b", MakeSchema({"k1", "k2"}));
  VER_CHECK_OK(a.AppendRow({Value::String("x"), Value::String("1")}));
  VER_CHECK_OK(a.AppendRow({Value::String("y"), Value::String("2")}));
  VER_CHECK_OK(b.AppendRow({Value::String("x"), Value::String("1")}));
  // k2 mismatch
  VER_CHECK_OK(b.AppendRow({Value::String("y"), Value::String("9")}));
  ASSERT_TRUE(repo.AddTable(std::move(a)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(b)).ok());

  JoinGraph graph;
  graph.edges.push_back(JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0});
  graph.edges.push_back(JoinEdge{ColumnRef{0, 1}, ColumnRef{1, 1}, 1.0, 1.0});
  NormalizeJoinGraph(&graph, {});
  Materializer m(&repo);
  Result<Table> view = m.Materialize(
      graph, {ColumnRef{0, 0}}, MaterializeOptions(), "v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->num_rows(), 1);  // only the "x" row satisfies both edges
}

TEST(MaterializerTest, IntermediateBlowupGuard) {
  TableRepository repo;
  Table a("a", MakeSchema({"k"}));
  Table b("b", MakeSchema({"k"}));
  for (int i = 0; i < 100; ++i) {
    VER_CHECK_OK(a.AppendRow({Value::String("same")}));
    VER_CHECK_OK(b.AppendRow({Value::String("same")}));
  }
  ASSERT_TRUE(repo.AddTable(std::move(a)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(b)).ok());

  JoinGraph graph;
  graph.edges.push_back(JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0});
  NormalizeJoinGraph(&graph, {});
  MaterializeOptions options;
  options.max_intermediate_rows = 1000;  // 100x100 cross join exceeds this
  Materializer m(&repo);
  Result<Table> view = m.Materialize(
      graph, {ColumnRef{0, 0}, ColumnRef{1, 0}}, options, "v");
  EXPECT_FALSE(view.ok());
  EXPECT_TRUE(view.status().IsOutOfRange());
}

TEST(MaterializerTest, ProjectionOutsideGraphFails) {
  TableRepository repo;
  Table a("a", MakeSchema({"k"}));
  VER_CHECK_OK(a.AppendRow({Value::String("x")}));
  ASSERT_TRUE(repo.AddTable(std::move(a)).ok());
  JoinGraph graph;
  graph.tables = {0};
  Materializer m(&repo);
  Result<Table> view = m.Materialize(graph, {ColumnRef{5, 0}},
                                     MaterializeOptions(), "v");
  EXPECT_FALSE(view.ok());
}

TEST(MaterializerTest, EmptyProjectionFails) {
  TableRepository repo;
  Materializer m(&repo);
  JoinGraph graph;
  graph.tables = {0};
  EXPECT_FALSE(m.Materialize(graph, {}, MaterializeOptions(), "v").ok());
}

TEST(MaterializerTest, MaterializeViewCarriesItsId) {
  TableRepository repo;
  Table t("t", MakeSchema({"a"}));
  VER_CHECK_OK(t.AppendRow({Value::String("x")}));
  ASSERT_TRUE(repo.AddTable(std::move(t)).ok());
  JoinGraph graph;
  graph.tables = {0};
  Materializer m(&repo);
  Result<View> view = m.MaterializeView(graph, {ColumnRef{0, 0}},
                                        MaterializeOptions(), /*view_id=*/7);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->id, 7);
  EXPECT_EQ(view->table.name(), "view_7");
  EXPECT_EQ(view->num_rows(), 1);
}

// ------------ Property test: random joins match nested loops ------------

class MaterializerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaterializerPropertyTest, RandomJoinMatchesNestedLoop) {
  Rng rng(GetParam());
  TableRepository repo;
  auto random_table = [&rng](const std::string& name, int rows) {
    Table t(name, MakeSchema({"k", "v"}));
    for (int i = 0; i < rows; ++i) {
      VER_CHECK_OK(t.AppendRow(
          {Value::String("k" + std::to_string(rng.UniformInt(0, 9))),
           Value::String(name + std::to_string(i))}));
    }
    return t;
  };
  Table lt = random_table("l", static_cast<int>(rng.UniformInt(5, 30)));
  Table rt = random_table("r", static_cast<int>(rng.UniformInt(5, 30)));
  const Table lcopy = lt;
  const Table rcopy = rt;
  ASSERT_TRUE(repo.AddTable(std::move(lt)).ok());
  ASSERT_TRUE(repo.AddTable(std::move(rt)).ok());

  JoinGraph graph;
  graph.edges.push_back(JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0});
  NormalizeJoinGraph(&graph, {});
  Materializer m(&repo);
  Result<Table> view = m.Materialize(
      graph, {ColumnRef{0, 0}, ColumnRef{0, 1}, ColumnRef{1, 1}},
      MaterializeOptions(), "v");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(ViewRows(view.value()),
            ReferenceJoin(lcopy, 0, rcopy, 0, {0, 1}, {1}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaterializerPropertyTest,
                         ::testing::Range(1, 21));

// ------------- Build-side cache: one instance across candidates -------------

// a(k, k2, va) and b(k, k2, vb) share keys k0..k9; their k2 columns agree on
// rows 0..6 only. c(k2, vc) holds m0..m4. e and f hold 100 copies of one
// key, so e ⋈ f has 100 x 100 intermediate rows.
TableRepository MakeCacheRepo() {
  TableRepository repo;
  Table a("a", MakeSchema({"k", "k2", "va"}));
  Table b("b", MakeSchema({"k", "k2", "vb"}));
  for (int i = 0; i < 10; ++i) {
    const std::string k = "k" + std::to_string(i);
    const std::string m = "m" + std::to_string(i % 5);
    VER_CHECK_OK(a.AppendRow({Value::String(k), Value::String(m),
                              Value::String("a" + std::to_string(i % 4))}));
    VER_CHECK_OK(b.AppendRow({Value::String(k),
                              Value::String(i < 7 ? m : "zz"),
                              Value::Int(i % 3)}));
  }
  Table c("c", MakeSchema({"k2", "vc"}));
  for (int i = 0; i < 5; ++i) {
    VER_CHECK_OK(c.AppendRow({Value::String("m" + std::to_string(i)),
                              Value::Double(i * 1.5)}));
  }
  Table e("e", MakeSchema({"k"}));
  Table f("f", MakeSchema({"k"}));
  for (int i = 0; i < 100; ++i) {
    VER_CHECK_OK(e.AppendRow({Value::String("same")}));
    VER_CHECK_OK(f.AppendRow({Value::String("same")}));
  }
  for (Table* t : {&a, &b, &c, &e, &f}) {
    EXPECT_TRUE(repo.AddTable(std::move(*t)).ok());
  }
  return repo;
}

ViewCandidate MakeCandidate(std::vector<JoinEdge> edges,
                            std::vector<int32_t> tables,
                            std::vector<ColumnRef> projection) {
  ViewCandidate cand;
  cand.graph.edges = std::move(edges);
  NormalizeJoinGraph(&cand.graph, tables);
  cand.projection = std::move(projection);
  cand.score = cand.graph.score;
  return cand;
}

// Ranked-candidate stand-ins that share build columns (b.k, c.k2), build
// two columns of one table (b.k, b.k2), and include a both-sides-bound
// edge, an edgeless graph, a reversed orientation and one candidate
// (e ⋈ f) that trips a 5000-row max_intermediate_rows.
std::vector<ViewCandidate> CacheCandidates() {
  const ColumnRef ak{0, 0}, ak2{0, 1}, ava{0, 2};
  const ColumnRef bk{1, 0}, bk2{1, 1}, bvb{1, 2};
  const ColumnRef ck2{2, 0}, cvc{2, 1};
  const ColumnRef ek{3, 0}, fk{4, 0};
  auto edge = [](ColumnRef l, ColumnRef r) {
    return JoinEdge{l, r, 1.0, 1.0};
  };
  return {
      MakeCandidate({edge(ak, bk)}, {}, {ava, bvb}),
      MakeCandidate({edge(ak, bk)}, {}, {ak, bk2}),
      MakeCandidate({edge(ak, bk), edge(bk2, ck2)}, {}, {ava, cvc}),
      MakeCandidate({edge(bk2, ck2)}, {}, {bvb, cvc}),
      MakeCandidate({edge(ek, fk)}, {}, {ek, fk}),
      MakeCandidate({edge(ak, bk), edge(ak2, bk2)}, {}, {ava, bk2, bvb}),
      MakeCandidate({}, {2}, {cvc, ck2}),
      MakeCandidate({edge(bk, ak)}, {}, {bvb, ava}),
      MakeCandidate({edge(ck2, bk2)}, {}, {cvc, bvb}),
      MakeCandidate({edge(ak, bk), edge(bk2, ck2), edge(ak2, ck2)}, {},
                    {ak, cvc}),
  };
}

void ExpectSameTable(const Table& got, const Table& want) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  ASSERT_EQ(got.num_columns(), want.num_columns());
  for (int c = 0; c < got.num_columns(); ++c) {
    EXPECT_EQ(got.schema().attribute(c).name, want.schema().attribute(c).name);
    EXPECT_EQ(got.column_data(c).encoding(), want.column_data(c).encoding());
    for (int64_t r = 0; r < got.num_rows(); ++r) {
      EXPECT_EQ(got.cell(r, c).type(), want.cell(r, c).type());
      EXPECT_EQ(got.cell(r, c).Compare(want.cell(r, c)), 0) << r << "," << c;
      EXPECT_EQ(got.cell_hash(r, c), want.cell_hash(r, c)) << r << "," << c;
    }
  }
}

// The views CandidateMaterializer must keep: a fresh Materializer per
// candidate, failures counted, empty views dropped.
std::vector<Table> FreshViews(const TableRepository& repo,
                              const std::vector<ViewCandidate>& candidates,
                              const MaterializeOptions& options,
                              int64_t* failures) {
  std::vector<Table> views;
  for (const ViewCandidate& cand : candidates) {
    Materializer fresh(&repo);
    Result<Table> view =
        fresh.Materialize(cand.graph, cand.projection, options, "v");
    if (!view.ok()) {
      EXPECT_TRUE(view.status().IsOutOfRange()) << view.status().ToString();
      ++*failures;
      continue;
    }
    if (view->num_rows() > 0) views.push_back(std::move(view).value());
  }
  return views;
}

TEST(MaterializerCacheTest, CandidateWalkEqualsFreshMaterializerPerCandidate) {
  TableRepository repo = MakeCacheRepo();
  const std::vector<ViewCandidate> candidates = CacheCandidates();
  // 5000 rows: e ⋈ f fails, every build fits. 12 rows: every new build
  // column clears the cache first.
  for (int64_t max_rows : {int64_t{5000}, int64_t{12}}) {
    SCOPED_TRACE(max_rows);
    MaterializeOptions options;
    options.max_intermediate_rows = max_rows;
    int64_t fresh_failures = 0;
    std::vector<Table> want =
        FreshViews(repo, candidates, options, &fresh_failures);
    EXPECT_GE(fresh_failures, 1);
    CandidateMaterializer walk(&repo, options);
    for (const ViewCandidate& cand : candidates) walk.Materialize(cand);
    EXPECT_EQ(walk.num_failures(), fresh_failures);
    ASSERT_EQ(walk.views().size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      SCOPED_TRACE(i);
      ExpectSameTable(walk.views()[i].table, want[i]);
    }
  }
}

TEST(MaterializerCacheTest, CacheClearsPastTheRowBoundWithSameAnswers) {
  TableRepository repo = MakeCacheRepo();
  MaterializeOptions options;
  options.max_intermediate_rows = 12;  // one 10-row build fits, two do not
  Materializer shared(&repo);
  int64_t clears = 0;
  int64_t last_cached = 0;
  for (const ViewCandidate& cand : CacheCandidates()) {
    Result<Table> got =
        shared.Materialize(cand.graph, cand.projection, options, "v");
    Materializer fresh(&repo);
    Result<Table> want =
        fresh.Materialize(cand.graph, cand.projection, options, "v");
    ASSERT_EQ(got.ok(), want.ok());
    if (got.ok()) ExpectSameTable(got.value(), want.value());
    if (shared.cached_build_rows() < last_cached) ++clears;
    last_cached = shared.cached_build_rows();
  }
  EXPECT_GT(clears, 0);
}

TEST(MaterializerCacheTest, RowLimitFiresAtTheSameCountWithAWarmCache) {
  TableRepository repo = MakeCacheRepo();
  const ViewCandidate blowup =
      MakeCandidate({JoinEdge{ColumnRef{3, 0}, ColumnRef{4, 0}, 1.0, 1.0}},
                    {}, {ColumnRef{3, 0}});
  Materializer warm(&repo);
  MaterializeOptions options;
  for (const ViewCandidate& cand : CacheCandidates()) {
    (void)warm.Materialize(cand.graph, cand.projection, options, "v");
  }
  // e ⋈ f holds exactly 100 x 100 intermediate rows: a limit of 10000
  // passes, 9999 fails, whether the build side is cached or fresh.
  for (Materializer* m : {&warm, static_cast<Materializer*>(nullptr)}) {
    Materializer fresh(&repo);
    Materializer* use = m != nullptr ? m : &fresh;
    options.max_intermediate_rows = 10000;
    Result<Table> at_limit =
        use->Materialize(blowup.graph, blowup.projection, options, "v");
    ASSERT_TRUE(at_limit.ok());
    EXPECT_EQ(at_limit->num_rows(), 1);
    options.max_intermediate_rows = 9999;
    Result<Table> past_limit =
        use->Materialize(blowup.graph, blowup.projection, options, "v");
    EXPECT_TRUE(past_limit.status().IsOutOfRange());
  }
}

}  // namespace
}  // namespace ver
