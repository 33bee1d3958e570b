// Ablations over Ver's design choices (beyond the paper's figures, called
// out in DESIGN.md):
//   A. clustering threshold theta of COLUMN-SELECTION — candidate set size
//      vs ground-truth hit rate;
//   B. key-uniqueness threshold of VIEW-DISTILLATION — how many candidate
//      keys, complementary and contradictory signals survive;
//   C. LSH band shape of the similarity index — joinable pairs found
//      (sketch-only mode) vs the exact two-tier default;
//   D. distillation on/off — how many candidate views the presentation
//      stage must navigate.

#include "bench_common.h"
#include "util/stats.h"

namespace ver {
namespace bench {
namespace {

void AblationTheta(GeneratedDataset* dataset) {
  std::printf("\nA. COLUMN-SELECTION theta (score levels kept)\n");
  TextTable table({"theta", "median #candidate cols", "hit ratio (Med)"});
  for (int theta : {1, 2, 5, 1000000}) {
    VerConfig config =
        ConfigWithStrategy(SelectionStrategy::kColumnSelection);
    config.selection.theta = theta;
    Ver system(&dataset->repo, config);
    std::vector<double> cols;
    int hits = 0, total = 0;
    for (const GroundTruthQuery& gt : dataset->queries) {
      Result<ExampleQuery> query =
          MakeNoisyQuery(dataset->repo, gt, NoiseLevel::kMedium, 3, 0xab1a);
      if (!query.ok()) continue;
      QueryResult result =
          system.Execute(DiscoveryRequest::ForQuery(query.value())).result;
      int c = 0;
      for (const auto& attr : result.selection) {
        c += static_cast<int>(attr.candidates.size());
      }
      cols.push_back(c);
      Result<bool> hit = ContainsGroundTruth(dataset->repo, gt, result.views);
      ++total;
      if (hit.ok() && hit.value()) ++hits;
    }
    char ratio[16];
    std::snprintf(ratio, sizeof(ratio), "%.2f",
                  total ? static_cast<double>(hits) / total : 0.0);
    table.AddRow({theta > 1000 ? "inf" : std::to_string(theta),
                  std::to_string(static_cast<int>(Median(cols))), ratio});
  }
  table.Print();
  std::printf(
      "theta=1 (the paper's default) already hits the ground truth; larger\n"
      "theta only inflates the candidate sets.\n");
}

void AblationKeyThreshold(GeneratedDataset* dataset) {
  std::printf("\nB. 4C key-uniqueness threshold\n");
  TextTable table({"threshold", "complementary pairs", "contradictory pairs",
                   "contradictions"});
  for (double threshold : {0.7, 0.9, 0.95, 1.0}) {
    VerConfig config =
        ConfigWithStrategy(SelectionStrategy::kColumnSelection);
    config.distillation.key_uniqueness_threshold = threshold;
    Ver system(&dataset->repo, config);
    int64_t complementary = 0, contradictory = 0, contradictions = 0;
    for (const GroundTruthQuery& gt : dataset->queries) {
      Result<ExampleQuery> query =
          MakeNoisyQuery(dataset->repo, gt, NoiseLevel::kZero, 3, 0xab1b);
      if (!query.ok()) continue;
      QueryResult result =
          system.Execute(DiscoveryRequest::ForQuery(query.value())).result;
      complementary += result.distillation.num_complementary_pairs;
      contradictory += result.distillation.num_contradictory_pairs;
      contradictions +=
          static_cast<int64_t>(result.distillation.contradictions.size());
    }
    table.AddRow({std::to_string(threshold), std::to_string(complementary),
                  std::to_string(contradictory),
                  std::to_string(contradictions)});
  }
  table.Print();
  std::printf(
      "Lower thresholds admit sloppier candidate keys: more keyed signals,\n"
      "but of lower quality; 1.0 only accepts perfect keys.\n");
}

void AblationLshBands(GeneratedDataset* dataset) {
  std::printf("\nC. LSH band shape (sketch-only mode, 128 permutations)\n");
  TextTable table({"bands", "rows/band", "joinable pairs (sketch)",
                   "joinable pairs (two-tier default)"});
  DiscoveryOptions base;
  auto exact_engine = DiscoveryEngine::Build(dataset->repo, base);
  int64_t exact_pairs = exact_engine->num_joinable_column_pairs();
  for (int bands : {8, 16, 32, 64}) {
    DiscoveryOptions options;
    options.profiler.exact_set_max = 0;  // sketch-only
    options.similarity.lsh_bands = bands;
    auto engine = DiscoveryEngine::Build(dataset->repo, options);
    table.AddRow({std::to_string(bands), std::to_string(128 / bands),
                  std::to_string(engine->num_joinable_column_pairs()),
                  std::to_string(exact_pairs)});
  }
  table.Print();
  std::printf(
      "More bands (fewer rows per band) lower the LSH collision threshold\n"
      "and recover more candidate pairs, approaching the exact tier.\n");
}

void AblationDistillationOff(GeneratedDataset* dataset) {
  std::printf("\nD. distillation on/off: the presentation stage's burden\n");
  TextTable table({"config", "median views for presentation"});
  for (bool distill : {true, false}) {
    VerConfig config =
        ConfigWithStrategy(SelectionStrategy::kColumnSelection);
    config.run_distillation = distill;
    Ver system(&dataset->repo, config);
    std::vector<double> sizes;
    for (const GroundTruthQuery& gt : dataset->queries) {
      Result<ExampleQuery> query =
          MakeNoisyQuery(dataset->repo, gt, NoiseLevel::kZero, 3, 0xab1d);
      if (!query.ok()) continue;
      QueryResult result =
          system.Execute(DiscoveryRequest::ForQuery(query.value())).result;
      sizes.push_back(
          static_cast<double>(result.distillation.surviving.size()));
    }
    table.AddRow({distill ? "4C distillation ON" : "4C distillation OFF",
                  std::to_string(static_cast<int64_t>(Median(sizes)))});
  }
  table.Print();
  std::printf(
      "Without 4C the user faces the raw candidate set — the funnel's\n"
      "whole point (Fig. 1) in one number.\n");
}

void Run() {
  PrintHeader("Ablations: theta, key threshold, LSH bands, distillation",
              "design-choice ablations (DESIGN.md)");
  GeneratedDataset wdc = GenerateWdcLike(BenchWdcSpec());
  AblationTheta(&wdc);
  AblationKeyThreshold(&wdc);
  AblationLshBands(&wdc);
  AblationDistillationOff(&wdc);
}

}  // namespace
}  // namespace bench
}  // namespace ver

int main() {
  ver::bench::Run();
  return 0;
}
