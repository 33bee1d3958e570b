// Fig. 8 microbenchmarks (Appendix C):
//   (a) #join graphs under different discovery-index containment
//       thresholds t in {0.8, 0.7, 0.6, 0.5} on ChEMBL-like — worse
//       schema quality => more (spurious) join paths;
//   (b) effect of the number of example rows in the query on #joinable
//       groups / #join graphs / #views (non-monotone, per the paper);
//   (c) effect of the number of example rows on #columns before
//       clustering, #clusters, #clusters selected, #columns selected;
//   (d) effect of the number of query columns (2 vs 3) on #join graphs
//       and #views.

#include "bench_common.h"

namespace ver {
namespace bench {
namespace {

void PartA(GeneratedDataset* dataset) {
  std::printf("\nFig. 8(a): #join graphs under index threshold t\n");
  TextTable table({"Query", "t=0.8", "t=0.7", "t=0.6", "t=0.5"});
  std::vector<double> thresholds = {0.8, 0.7, 0.6, 0.5};
  std::vector<std::unique_ptr<Ver>> systems;
  std::vector<int64_t> joinable_pairs;
  for (double t : thresholds) {
    VerConfig config =
        ConfigWithStrategy(SelectionStrategy::kColumnSelection);
    config.discovery.join_paths.containment_threshold = t;
    systems.push_back(std::make_unique<Ver>(&dataset->repo, config));
    joinable_pairs.push_back(
        systems.back()->engine().num_joinable_column_pairs());
  }
  for (const GroundTruthQuery& gt : dataset->queries) {
    Result<ExampleQuery> query =
        MakeNoisyQuery(dataset->repo, gt, NoiseLevel::kZero, 3, 0x88a);
    if (!query.ok()) continue;
    std::vector<std::string> row = {gt.name};
    for (size_t i = 0; i < thresholds.size(); ++i) {
      QueryResult result =
          systems[i]->Execute(DiscoveryRequest::ForQuery(query.value())).result;
      row.push_back(std::to_string(result.search.num_join_graphs));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("Joinable column pairs per threshold: ");
  for (size_t i = 0; i < thresholds.size(); ++i) {
    std::printf("%st=%.1f: %lld", i ? ", " : "", thresholds[i],
                static_cast<long long>(joinable_pairs[i]));
  }
  std::printf(
      "\nPaper shape: lowering t admits more (noisier) inclusion\n"
      "dependencies, so join graphs grow as schema quality worsens\n"
      "(paper: 435 -> 2947 joinable pairs from t=0.8 to t=0.5).\n");
}

void PartBC(GeneratedDataset* dataset) {
  std::printf("\nFig. 8(b)+(c): effect of #example rows in the query\n");
  Ver system(&dataset->repo,
             ConfigWithStrategy(SelectionStrategy::kColumnSelection));
  TextTable table({"#Rows", "#JoinableGroups", "#JoinGraphs", "#Views",
                   "#Cols(before)", "#Clusters", "#Clusters sel",
                   "#Cols sel"});
  const GroundTruthQuery& gt = dataset->queries[0];
  for (int rows = 2; rows <= 10; rows += 2) {
    Result<ExampleQuery> query =
        MakeNoisyQuery(dataset->repo, gt, NoiseLevel::kMedium, rows, 0x88b);
    if (!query.ok()) continue;
    QueryResult result =
        system.Execute(DiscoveryRequest::ForQuery(query.value())).result;
    int total_before = 0, clusters = 0, clusters_selected = 0, cols = 0;
    for (const ColumnSelectionResult& attr : result.selection) {
      total_before += attr.total_columns_before_clustering;
      clusters += static_cast<int>(attr.clusters.size());
      clusters_selected += static_cast<int>(attr.selected_clusters.size());
      cols += static_cast<int>(attr.candidates.size());
    }
    table.AddRow({std::to_string(rows),
                  std::to_string(result.search.num_joinable_groups),
                  std::to_string(result.search.num_join_graphs),
                  std::to_string(result.views.size()),
                  std::to_string(total_before), std::to_string(clusters),
                  std::to_string(clusters_selected), std::to_string(cols)});
  }
  table.Print();
  std::printf(
      "Paper shape: more example rows hit more columns before clustering\n"
      "(grows the space) while sharpening cluster scores (shrinks it), so\n"
      "the search-space size is NOT monotone in the number of rows.\n");
}

void PartD(GeneratedDataset* dataset) {
  std::printf("\nFig. 8(d): effect of #query columns (discussed in text)\n");
  Ver system(&dataset->repo,
             ConfigWithStrategy(SelectionStrategy::kColumnSelection));
  TextTable table({"#Columns", "#JoinGraphs", "#Views"});
  // 2-column query: the ground-truth pair; 3-column: plus organism.
  const GroundTruthQuery& q1 = dataset->queries[0];  // cell_name x assay_type
  Result<ExampleQuery> two =
      MakeNoisyQuery(dataset->repo, q1, NoiseLevel::kZero, 3, 0x88d);
  GroundTruthQuery wide = q1;
  wide.gt_tables.push_back("assays");
  wide.gt_attributes.push_back("organism");
  wide.noise_tables.push_back("");
  wide.noise_attributes.push_back("");
  Result<ExampleQuery> three =
      MakeNoisyQuery(dataset->repo, wide, NoiseLevel::kZero, 3, 0x88d);
  if (two.ok()) {
    QueryResult r =
        system.Execute(DiscoveryRequest::ForQuery(two.value())).result;
    table.AddRow({"2", std::to_string(r.search.num_join_graphs),
                  std::to_string(r.views.size())});
  }
  if (three.ok()) {
    QueryResult r =
        system.Execute(DiscoveryRequest::ForQuery(three.value())).result;
    table.AddRow({"3", std::to_string(r.search.num_join_graphs),
                  std::to_string(r.views.size())});
  }
  table.Print();
  std::printf(
      "Paper shape: more query columns => more join graphs, candidate\n"
      "views and runtime (monotone, unlike the row sweep).\n");
}

void Run() {
  PrintHeader("Fig. 8: microbenchmarks (index quality, query shape)",
              "Fig. 8 / Appendix C");
  GeneratedDataset dataset = GenerateChemblLike(BenchChemblSpec());
  PartA(&dataset);
  PartBC(&dataset);
  PartD(&dataset);
}

}  // namespace
}  // namespace bench
}  // namespace ver

int main() {
  ver::bench::Run();
  return 0;
}
