// Ver facade (Algorithm 1) tests: config knobs, sessions, automatic
// ranking, alternative specifications.

#include <gtest/gtest.h>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "core/ver.h"
#include "table/csv.h"

namespace ver {
namespace {

TableRepository MakeRepo() {
  TableRepository repo;
  auto add = [&repo](const std::string& name, const std::string& csv) {
    Result<Table> t = ReadCsvString(csv, name);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(repo.AddTable(std::move(t).value()).ok());
  };
  add("cities",
      "city,state\nBoston,Massachusetts\nChicago,Illinois\nAustin,Texas\n"
      "Denver,Colorado\n");
  add("mayors",
      "city,mayor\nBoston,Wu\nChicago,Johnson\nAustin,Watson\nDenver,"
      "Johnston\n");
  add("mayors_old", "city,mayor\nBoston,Walsh\nChicago,Lightfoot\n");
  return repo;
}

ExampleQuery CityMayorQuery() {
  return ExampleQuery::FromColumns({{"Boston", "Chicago"}, {"Wu", "Walsh"}});
}

TEST(VerFacadeTest, ExecuteProducesViewsAndRanking) {
  TableRepository repo = MakeRepo();
  Ver system(&repo, VerConfig());
  QueryResult result =
      system.Execute(DiscoveryRequest::ForQuery(CityMayorQuery())).result;
  EXPECT_GT(result.views.size(), 0u);
  EXPECT_EQ(result.automatic_ranking.size(),
            result.distillation.surviving.size());
  // Ranking references surviving views only and is overlap-sorted.
  for (size_t i = 1; i < result.automatic_ranking.size(); ++i) {
    EXPECT_GE(result.automatic_ranking[i - 1].overlap,
              result.automatic_ranking[i].overlap);
  }
  for (const OverlapRankedView& r : result.automatic_ranking) {
    EXPECT_TRUE(std::find(result.distillation.surviving.begin(),
                          result.distillation.surviving.end(),
                          r.view_index) !=
                result.distillation.surviving.end());
  }
}

TEST(VerFacadeTest, DistillationCanBeDisabled) {
  TableRepository repo = MakeRepo();
  VerConfig config;
  config.run_distillation = false;
  Ver system(&repo, config);
  QueryResult result =
      system.Execute(DiscoveryRequest::ForQuery(CityMayorQuery())).result;
  EXPECT_EQ(result.distillation.surviving.size(), result.views.size());
  EXPECT_EQ(result.distillation.edges.size(), 0u);
}

TEST(VerFacadeTest, ExpectedViewsLimitsMaterialization) {
  TableRepository repo = MakeRepo();
  VerConfig config;
  config.search.expected_views = 1;
  Ver system(&repo, config);
  QueryResult result =
      system.Execute(DiscoveryRequest::ForQuery(CityMayorQuery())).result;
  EXPECT_LE(result.views.size(), 1u);
  // Candidates are still fully enumerated.
  EXPECT_GE(result.search.candidates.size(), result.views.size());
}

TEST(VerFacadeTest, SessionLifecycle) {
  TableRepository repo = MakeRepo();
  Ver system(&repo, VerConfig());
  ExampleQuery query = CityMayorQuery();
  QueryResult result = system.Execute(DiscoveryRequest::ForQuery(query)).result;
  auto session = system.StartSession(result, query);
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->remaining().size(),
            result.distillation.surviving.size());
  if (!session->Done()) {
    Question q = session->NextQuestion();
    session->SubmitAnswer(q, Answer{AnswerType::kSkip});
    EXPECT_EQ(session->num_questions_asked(), 1);
  }
}

TEST(VerFacadeTest, CandidateRequestMatchesSpecification) {
  TableRepository repo = MakeRepo();
  Ver system(&repo, VerConfig());
  std::vector<ColumnSelectionResult> spec =
      SpecifyByAttributes(system.engine(), {"city", "mayor"});
  QueryResult result =
      system
          .Execute(DiscoveryRequest::ForCandidates(std::move(spec),
                                                   CityMayorQuery()))
          .result;
  EXPECT_GT(result.views.size(), 0u);
  EXPECT_EQ(result.selection.size(), 2u);
}

TEST(VerFacadeTest, EmptyQueryYieldsNoViews) {
  TableRepository repo = MakeRepo();
  Ver system(&repo, VerConfig());
  ExampleQuery query = ExampleQuery::FromColumns({{"zzz-not-present"}});
  QueryResult result = system.Execute(DiscoveryRequest::ForQuery(query)).result;
  EXPECT_EQ(result.views.size(), 0u);
  EXPECT_TRUE(result.automatic_ranking.empty());
}

TEST(VerFacadeTest, RhoOneRestrictsJoinGraphs) {
  TableRepository repo = MakeRepo();
  VerConfig wide;
  wide.search.max_hops = 2;
  VerConfig narrow;
  narrow.search.max_hops = 1;
  Ver wide_system(&repo, wide);
  Ver narrow_system(&repo, narrow);
  QueryResult w =
      wide_system.Execute(DiscoveryRequest::ForQuery(CityMayorQuery())).result;
  QueryResult n =
      narrow_system.Execute(DiscoveryRequest::ForQuery(CityMayorQuery()))
          .result;
  EXPECT_LE(n.search.num_join_graphs, w.search.num_join_graphs);
}

TEST(VerFacadeTest, TimingComponentsSumToTotal) {
  TableRepository repo = MakeRepo();
  Ver system(&repo, VerConfig());
  QueryResult result =
      system.Execute(DiscoveryRequest::ForQuery(CityMayorQuery())).result;
  double sum = result.timing.column_selection_s +
               result.timing.join_graph_search_s +
               result.timing.materialize_s + result.timing.four_c_s;
  EXPECT_DOUBLE_EQ(result.timing.total_s(), sum);
}

}  // namespace
}  // namespace ver
