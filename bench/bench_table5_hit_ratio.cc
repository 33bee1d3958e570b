// Table V: Ground Truth Hit Ratio over noisy queries, split by noise level,
// for the three column-selection strategies:
//   SA = Select-All (FastTopK), SB = Select-Best (SQuID), CS = Ver.
//
// Expected shape (paper): all ~1.0 at Zero noise; SB collapses at Med/High
// (0.08 / 0.02 in the paper); SA and CS stay at/near 1.0.

#include "bench_common.h"

namespace ver {
namespace bench {
namespace {

struct Tally {
  int hits = 0;
  int total = 0;
  std::string Ratio() const {
    if (total == 0) return "-";
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%.2f",
                  static_cast<double>(hits) / total);
    return buf;
  }
};

void Run() {
  PrintHeader("Table V: Ground Truth Hit Ratio (SA / SB / CS x noise)",
              "Table V");

  std::vector<GeneratedDataset> datasets;
  datasets.push_back(GenerateChemblLike(BenchChemblSpec()));
  datasets.push_back(GenerateWdcLike(BenchWdcSpec()));

  const std::vector<SelectionStrategy> strategies = {
      SelectionStrategy::kSelectAll, SelectionStrategy::kSelectBest,
      SelectionStrategy::kColumnSelection};
  const int queries_per_gt = 5;  // paper: 5 noisy queries per ground truth

  // tally[noise][strategy]
  Tally tally[3][3];

  for (GeneratedDataset& dataset : datasets) {
    std::vector<std::unique_ptr<Ver>> systems;
    for (SelectionStrategy s : strategies) {
      systems.push_back(
          std::make_unique<Ver>(&dataset.repo, ConfigWithStrategy(s)));
    }
    for (const GroundTruthQuery& gt : dataset.queries) {
      for (size_t n = 0; n < AllNoiseLevels().size(); ++n) {
        for (int rep = 0; rep < queries_per_gt; ++rep) {
          Result<ExampleQuery> query =
              MakeNoisyQuery(dataset.repo, gt, AllNoiseLevels()[n], 3,
                             1000 + rep * 37 + n);
          if (!query.ok()) continue;
          for (size_t s = 0; s < strategies.size(); ++s) {
            QueryResult result =
                systems[s]->Execute(DiscoveryRequest::ForQuery(query.value()))
                    .result;
            Result<bool> hit =
                ContainsGroundTruth(dataset.repo, gt, result.views);
            tally[n][s].total += 1;
            if (hit.ok() && hit.value()) tally[n][s].hits += 1;
          }
        }
      }
    }
  }

  TextTable table({"Noise level", "SA (Select-All)", "SB (Select-Best)",
                   "CS (Column-Selection)"});
  const char* names[3] = {"Zero Noise", "Mid Noise", "High Noise"};
  for (int n = 0; n < 3; ++n) {
    table.AddRow({names[n], tally[n][0].Ratio(), tally[n][1].Ratio(),
                  tally[n][2].Ratio()});
  }
  table.Print();
  std::printf(
      "Paper shape: SA/CS stay ~1.0 at every noise level; SB collapses\n"
      "under noise (paper: 1.0 / 0.08 / 0.02) because it over-trusts the\n"
      "single column containing the most examples.\n");
}

}  // namespace
}  // namespace bench
}  // namespace ver

int main() {
  ver::bench::Run();
  return 0;
}
