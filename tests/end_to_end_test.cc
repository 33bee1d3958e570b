// End-to-end integration tests: generators -> Ver pipeline -> ground truth.

#include <gtest/gtest.h>

#include <algorithm>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "core/distillation.h"
#include "core/ver.h"
#include "core/view_graph_export.h"
#include "distillation_expect.h"
#include "workload/chembl_gen.h"
#include "workload/noisy_query.h"
#include "workload/open_data_gen.h"
#include "workload/simulated_user.h"
#include "workload/wdc_gen.h"

namespace ver {
namespace {

ChemblSpec SmallChembl() {
  ChemblSpec spec;
  spec.num_compounds = 120;
  spec.num_targets = 60;
  spec.num_cells = 40;
  spec.num_assays = 150;
  spec.num_activities = 200;
  spec.num_filler_tables = 4;
  return spec;
}

WdcSpec SmallWdc() {
  WdcSpec spec;
  spec.versions_per_topic = 6;
  spec.num_filler_tables = 15;
  return spec;
}

// Gathering only delivered views changes nothing a result reports: for
// the first `num_queries` ground-truth queries at each noise level, the
// pipeline's
// distillation equals DistillViews over the fully rebuilt views field by
// field, and ViewGraphToDot and ContainsGroundTruth over the result equal
// their values over the rebuilt views.
void ExpectResultMatchesRebuiltViews(
    const GeneratedDataset& dataset, const Ver& system, size_t num_queries,
    const std::vector<NoiseLevel>& levels = {NoiseLevel::kZero,
                                             NoiseLevel::kMedium}) {
  int64_t pruned = 0;
  for (size_t q = 0; q < std::min(num_queries, dataset.queries.size()); ++q) {
    const GroundTruthQuery& gt = dataset.queries[q];
    for (NoiseLevel level : levels) {
      SCOPED_TRACE(gt.name + (level == NoiseLevel::kZero ? " zero noise"
                                                          : " medium noise"));
      Result<ExampleQuery> query =
          MakeNoisyQuery(dataset.repo, gt, level, 3, 29 + q);
      if (!query.ok()) continue;
      DiscoveryResponse response =
          system.Execute(DiscoveryRequest::ForQuery(query.value()));
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      const QueryResult& result = response.result;
      std::vector<View> rebuilt = MaterializeCandidates(
          dataset.repo, result.search.candidates, system.config().search,
          nullptr);
      ASSERT_EQ(rebuilt.size(), result.views.size());
      ExpectSameDistillation(
          result.distillation,
          DistillViews(rebuilt, system.config().distillation));
      EXPECT_EQ(ViewGraphToDot(result.views, result.distillation),
                ViewGraphToDot(rebuilt, result.distillation));
      Result<bool> hit = ContainsGroundTruth(dataset.repo, gt, result.views);
      Result<bool> rebuilt_hit = ContainsGroundTruth(dataset.repo, gt, rebuilt);
      ASSERT_TRUE(hit.ok());
      ASSERT_TRUE(rebuilt_hit.ok());
      EXPECT_EQ(hit.value(), rebuilt_hit.value());
      for (const View& v : result.views) pruned += v.has_columns() ? 0 : 1;
    }
  }
  EXPECT_GT(pruned, 0);
}

class ChemblEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new GeneratedDataset(GenerateChemblLike(SmallChembl()));
    ver_ = new Ver(&dataset_->repo, VerConfig());
  }
  static void TearDownTestSuite() {
    delete ver_;
    delete dataset_;
    ver_ = nullptr;
    dataset_ = nullptr;
  }
  static GeneratedDataset* dataset_;
  static Ver* ver_;
};

GeneratedDataset* ChemblEndToEndTest::dataset_ = nullptr;
Ver* ChemblEndToEndTest::ver_ = nullptr;

TEST_F(ChemblEndToEndTest, ResultMatchesRebuiltViews) {
  ExpectResultMatchesRebuiltViews(*dataset_, *ver_, 5);
}

TEST_F(ChemblEndToEndTest, RepositoryShape) {
  EXPECT_GE(dataset_->repo.num_tables(), 10);
  EXPECT_GT(dataset_->repo.TotalRows(), 500);
  EXPECT_GT(ver_->engine().num_joinable_column_pairs(), 0);
}

TEST_F(ChemblEndToEndTest, ZeroNoiseQueriesHitGroundTruth) {
  for (const GroundTruthQuery& gt : dataset_->queries) {
    Result<ExampleQuery> query = MakeNoisyQuery(
        dataset_->repo, gt, NoiseLevel::kZero, 3, /*seed=*/7);
    ASSERT_TRUE(query.ok()) << gt.name;
    QueryResult result =
        ver_->Execute(DiscoveryRequest::ForQuery(query.value())).result;
    EXPECT_GT(result.views.size(), 0u) << gt.name;
    Result<bool> hit =
        ContainsGroundTruth(dataset_->repo, gt, result.views);
    ASSERT_TRUE(hit.ok()) << gt.name << ": " << hit.status().ToString();
    EXPECT_TRUE(hit.value()) << gt.name << " ground truth missing among "
                             << result.views.size() << " views";
  }
}

TEST_F(ChemblEndToEndTest, MediumNoiseColumnSelectionStillHits) {
  int hits = 0;
  for (const GroundTruthQuery& gt : dataset_->queries) {
    Result<ExampleQuery> query = MakeNoisyQuery(
        dataset_->repo, gt, NoiseLevel::kMedium, 3, /*seed=*/17);
    ASSERT_TRUE(query.ok());
    QueryResult result =
        ver_->Execute(DiscoveryRequest::ForQuery(query.value())).result;
    Result<bool> hit =
        ContainsGroundTruth(dataset_->repo, gt, result.views);
    ASSERT_TRUE(hit.ok());
    if (hit.value()) ++hits;
  }
  // Column-Selection is designed to be robust to noise; most queries hit.
  EXPECT_GE(hits, 4) << "of " << dataset_->queries.size();
}

TEST_F(ChemblEndToEndTest, DistillationReducesOrKeepsViewCount) {
  Result<ExampleQuery> query = MakeNoisyQuery(
      dataset_->repo, dataset_->queries[0], NoiseLevel::kZero, 3, 3);
  ASSERT_TRUE(query.ok());
  QueryResult result =
      ver_->Execute(DiscoveryRequest::ForQuery(query.value())).result;
  EXPECT_LE(result.distillation.surviving.size(), result.views.size());
  EXPECT_LE(result.distillation.count_after_contained,
            result.distillation.count_after_compatible);
  EXPECT_LE(result.distillation.count_after_compatible,
            static_cast<int64_t>(result.views.size()));
}

TEST_F(ChemblEndToEndTest, Q1ProducesCompatibleViewsViaAlternateKeys) {
  // assays joins cell_dictionary on cell_name or cell_description (1:1):
  // at least one compatible pair must be detected.
  Result<ExampleQuery> query = MakeNoisyQuery(
      dataset_->repo, dataset_->queries[0], NoiseLevel::kZero, 3, 11);
  ASSERT_TRUE(query.ok());
  QueryResult result =
      ver_->Execute(DiscoveryRequest::ForQuery(query.value())).result;
  EXPECT_GT(result.distillation.num_compatible_pairs, 0)
      << "expected compatible views from alternate 1:1 join keys";
}

TEST_F(ChemblEndToEndTest, Q2ProducesContradictionsFromWrongJoinPaths) {
  Result<ExampleQuery> query = MakeNoisyQuery(
      dataset_->repo, dataset_->queries[1], NoiseLevel::kZero, 3, 13);
  ASSERT_TRUE(query.ok());
  QueryResult result =
      ver_->Execute(DiscoveryRequest::ForQuery(query.value())).result;
  EXPECT_GT(result.distillation.contradictions.size(), 0u)
      << "expected contradictions from the disagreeing organism mapping";
}

TEST_F(ChemblEndToEndTest, Q3ProducesContainedViews) {
  Result<ExampleQuery> query = MakeNoisyQuery(
      dataset_->repo, dataset_->queries[2], NoiseLevel::kZero, 3, 19);
  ASSERT_TRUE(query.ok());
  QueryResult result =
      ver_->Execute(DiscoveryRequest::ForQuery(query.value())).result;
  EXPECT_GT(result.distillation.num_contained_pairs +
                result.distillation.num_compatible_pairs,
            0)
      << "expected contained/compatible views from molecule_dictionary";
}

TEST_F(ChemblEndToEndTest, PipelineTimingIsPopulated) {
  Result<ExampleQuery> query = MakeNoisyQuery(
      dataset_->repo, dataset_->queries[0], NoiseLevel::kZero, 3, 23);
  ASSERT_TRUE(query.ok());
  QueryResult result =
      ver_->Execute(DiscoveryRequest::ForQuery(query.value())).result;
  EXPECT_GT(result.timing.total_s(), 0.0);
  EXPECT_GE(result.timing.column_selection_s, 0.0);
  EXPECT_GE(result.timing.materialize_s, 0.0);
}

TEST(WdcEndToEndTest, AllTopicsHitAtZeroNoise) {
  GeneratedDataset dataset = GenerateWdcLike(SmallWdc());
  Ver system(&dataset.repo, VerConfig());
  for (const GroundTruthQuery& gt : dataset.queries) {
    Result<ExampleQuery> query =
        MakeNoisyQuery(dataset.repo, gt, NoiseLevel::kZero, 3, 31);
    ASSERT_TRUE(query.ok()) << gt.name;
    QueryResult result =
        system.Execute(DiscoveryRequest::ForQuery(query.value())).result;
    EXPECT_GT(result.views.size(), 0u) << gt.name;
    Result<bool> hit = ContainsGroundTruth(dataset.repo, gt, result.views);
    ASSERT_TRUE(hit.ok()) << gt.name;
    EXPECT_TRUE(hit.value()) << gt.name;
  }
}

TEST(WdcEndToEndTest, TopicVersionsProduceAllFourCategories) {
  GeneratedDataset dataset = GenerateWdcLike(SmallWdc());
  Ver system(&dataset.repo, VerConfig());
  int64_t compatible = 0, contained = 0, complementary = 0, contradictory = 0;
  for (const GroundTruthQuery& gt : dataset.queries) {
    Result<ExampleQuery> query =
        MakeNoisyQuery(dataset.repo, gt, NoiseLevel::kZero, 3, 37);
    ASSERT_TRUE(query.ok());
    QueryResult result =
        system.Execute(DiscoveryRequest::ForQuery(query.value())).result;
    compatible += result.distillation.num_compatible_pairs;
    contained += result.distillation.num_contained_pairs;
    complementary += result.distillation.num_complementary_pairs;
    contradictory += result.distillation.num_contradictory_pairs;
  }
  EXPECT_GT(compatible, 0);
  EXPECT_GT(contained, 0);
  EXPECT_GT(complementary, 0);
  EXPECT_GT(contradictory, 0);
}

TEST(WdcEndToEndTest, ResultMatchesRebuiltViews) {
  // One query: a WDC result holds thousands of views, and its view graph
  // half a million edges, so each ViewGraphToDot takes about half a second.
  GeneratedDataset dataset = GenerateWdcLike(SmallWdc());
  ExpectResultMatchesRebuiltViews(dataset, Ver(&dataset.repo, VerConfig()),
                                  1, {NoiseLevel::kZero});
}

TEST(WdcEndToEndTest, SimulatedUserFindsViewWithPresentation) {
  GeneratedDataset dataset = GenerateWdcLike(SmallWdc());
  Ver system(&dataset.repo, VerConfig());
  const GroundTruthQuery& gt = dataset.queries[0];
  Result<ExampleQuery> query =
      MakeNoisyQuery(dataset.repo, gt, NoiseLevel::kZero, 3, 41);
  ASSERT_TRUE(query.ok());
  QueryResult result =
      system.Execute(DiscoveryRequest::ForQuery(query.value())).result;
  // The user judges every candidate view by content; views 4C pruned
  // carry no cells, so rebuild them.
  const std::vector<View> views = MaterializeCandidates(
      dataset.repo, result.search.candidates, system.config().search,
      nullptr);
  Result<std::vector<int>> acceptable =
      GroundTruthMatches(dataset.repo, gt, views);
  ASSERT_TRUE(acceptable.ok());
  ASSERT_FALSE(acceptable->empty());

  auto session = system.StartSession(result, query.value());
  SimulatedUser user(SimulatedUserProfile{}, acceptable.value(), &views,
                     &result.distillation);
  SessionOutcome outcome = DriveSession(session.get(), &user, 60);
  EXPECT_TRUE(outcome.found) << "simulated user did not find the view after "
                             << outcome.interactions << " interactions";
}

TEST(OpenDataEndToEndTest, PortionNestingHolds) {
  OpenDataSpec small;
  small.num_tables = 60;
  small.num_queries = 8;
  OpenDataSpec quarter = small;
  quarter.portion = 0.25;
  GeneratedDataset full = GenerateOpenDataLike(small);
  GeneratedDataset part = GenerateOpenDataLike(quarter);
  ASSERT_LT(part.repo.num_tables(), full.repo.num_tables());
  // Every table in the smaller sample exists identically in the larger.
  for (int32_t t = 0; t < part.repo.num_tables(); ++t) {
    const Table& small_table = part.repo.table(t);
    Result<int32_t> id = full.repo.FindTable(small_table.name());
    ASSERT_TRUE(id.ok()) << small_table.name();
    const Table& big_table = full.repo.table(id.value());
    EXPECT_EQ(small_table.num_rows(), big_table.num_rows());
    EXPECT_EQ(small_table.schema().CanonicalSignature(),
              big_table.schema().CanonicalSignature());
  }
  // Queries of the full dataset reference only tables within the quarter.
  for (const GroundTruthQuery& gt : full.queries) {
    for (const std::string& table : gt.gt_tables) {
      EXPECT_TRUE(part.repo.FindTable(table).ok()) << table;
    }
  }
}

TEST(OpenDataEndToEndTest, ResultMatchesRebuiltViews) {
  OpenDataSpec spec;
  spec.num_tables = 60;
  spec.num_queries = 6;
  GeneratedDataset dataset = GenerateOpenDataLike(spec);
  ExpectResultMatchesRebuiltViews(dataset, Ver(&dataset.repo, VerConfig()),
                                  6);
}

TEST(OpenDataEndToEndTest, QueriesHitGroundTruth) {
  OpenDataSpec spec;
  spec.num_tables = 60;
  spec.num_queries = 6;
  GeneratedDataset dataset = GenerateOpenDataLike(spec);
  ASSERT_GT(dataset.queries.size(), 0u);
  Ver system(&dataset.repo, VerConfig());
  int hits = 0;
  for (const GroundTruthQuery& gt : dataset.queries) {
    Result<ExampleQuery> query =
        MakeNoisyQuery(dataset.repo, gt, NoiseLevel::kZero, 3, 43);
    ASSERT_TRUE(query.ok());
    QueryResult result =
        system.Execute(DiscoveryRequest::ForQuery(query.value())).result;
    Result<bool> hit = ContainsGroundTruth(dataset.repo, gt, result.views);
    ASSERT_TRUE(hit.ok());
    if (hit.value()) ++hits;
  }
  EXPECT_GE(hits, static_cast<int>(dataset.queries.size()) - 1);
}

}  // namespace
}  // namespace ver
