// Fig. 7: Run time of COLUMN-SELECTION + JOIN-GRAPH-SEARCH + MATERIALIZER
// on ChEMBL-like and WDC-like, per query, noise level and strategy.

#include "bench_common.h"

namespace ver {
namespace bench {
namespace {

void RunDataset(const std::string& label, GeneratedDataset* dataset,
                TextTable* table) {
  const std::vector<SelectionStrategy> strategies = {
      SelectionStrategy::kSelectAll, SelectionStrategy::kSelectBest,
      SelectionStrategy::kColumnSelection};
  std::vector<std::unique_ptr<Ver>> systems;
  for (SelectionStrategy s : strategies) {
    VerConfig config = ConfigWithStrategy(s);
    config.run_distillation = false;  // Fig. 7 measures CS+JGS+M only
    systems.push_back(std::make_unique<Ver>(&dataset->repo, config));
  }
  for (const GroundTruthQuery& gt : dataset->queries) {
    for (NoiseLevel level : AllNoiseLevels()) {
      Result<ExampleQuery> query =
          MakeNoisyQuery(dataset->repo, gt, level, 3, 0x717);
      if (!query.ok()) continue;
      std::vector<std::string> row = {label + " " + gt.name,
                                      NoiseLevelToString(level)};
      for (size_t s = 0; s < strategies.size(); ++s) {
        QueryResult result =
            systems[s]->Execute(DiscoveryRequest::ForQuery(query.value()))
                .result;
        double cs_jgs_m = result.timing.column_selection_s +
                          result.timing.join_graph_search_s +
                          result.timing.materialize_s;
        Result<bool> hit =
            ContainsGroundTruth(dataset->repo, gt, result.views);
        std::string cell = FormatSeconds(cs_jgs_m);
        if (!(hit.ok() && hit.value())) cell += " *";
        row.push_back(cell);
      }
      table->AddRow(std::move(row));
    }
  }
}

void Run() {
  PrintHeader("Fig. 7: runtime of CS + JGS + M per strategy", "Fig. 7");
  TextTable table({"Query", "Noise", "Select-All", "Select-Best",
                   "Column-Selection"});
  GeneratedDataset chembl = GenerateChemblLike(BenchChemblSpec());
  RunDataset("ChEMBL", &chembl, &table);
  GeneratedDataset wdc = GenerateWdcLike(BenchWdcSpec());
  RunDataset("WDC", &wdc, &table);
  table.Print();
  std::printf(
      "('*' marks runs that missed the ground truth.)\n"
      "Paper shape: Column-Selection runs an order of magnitude faster\n"
      "than Select-All because smaller candidate sets mean fewer join\n"
      "graphs to enumerate and materialize; Select-Best is fast but\n"
      "useless under noise.\n");
}

}  // namespace
}  // namespace bench
}  // namespace ver

int main() {
  ver::bench::Run();
  return 0;
}
