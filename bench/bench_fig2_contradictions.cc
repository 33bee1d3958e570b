// Fig. 2: Number of views left at each step after pruning views via
// contradiction questions, best case vs worst case, per noise level.
//
// The paper plots ChEMBL Q4 (non-discriminative contradictions: one view
// pruned per step) and WDC Q3 (discriminative contradictions: several views
// pruned per step). We reproduce both regimes with ChEMBL Q2 (pairwise
// contradictions from wrong join paths) and WDC Q4 (conflicting population
// versions sharing contradiction sides).

#include "bench_common.h"

namespace ver {
namespace bench {
namespace {

std::string CurveToString(const std::vector<int64_t>& curve) {
  std::string out;
  for (size_t i = 0; i < curve.size(); ++i) {
    if (i) out += " -> ";
    out += std::to_string(curve[i]);
  }
  return out;
}

void RunQuery(const std::string& label, Ver* system,
              const TableRepository& repo, const GroundTruthQuery& gt) {
  std::printf("\n--- %s ---\n", label.c_str());
  for (NoiseLevel level : AllNoiseLevels()) {
    Result<ExampleQuery> query = MakeNoisyQuery(repo, gt, level, 3, 0xf16);
    if (!query.ok()) continue;
    QueryResult result =
        system->Execute(DiscoveryRequest::ForQuery(query.value())).result;
    std::vector<int64_t> best =
        ContradictionPruningCurve(result.distillation, true, 10);
    std::vector<int64_t> worst =
        ContradictionPruningCurve(result.distillation, false, 10);
    std::printf("%-5s (worst case): %s\n", NoiseLevelToString(level),
                CurveToString(worst).c_str());
    std::printf("%-5s (best case) : %s\n", NoiseLevelToString(level),
                CurveToString(best).c_str());
  }
}

void Run() {
  PrintHeader("Fig. 2: Views left per contradiction-pruning step", "Fig. 2");

  GeneratedDataset chembl = GenerateChemblLike(BenchChemblSpec());
  Ver chembl_system(&chembl.repo,
                    ConfigWithStrategy(SelectionStrategy::kColumnSelection));
  RunQuery("ChEMBL Q2 (pairwise contradictions)", &chembl_system,
           chembl.repo, chembl.queries[1]);

  GeneratedDataset wdc = GenerateWdcLike(BenchWdcSpec());
  Ver wdc_system(&wdc.repo,
                 ConfigWithStrategy(SelectionStrategy::kColumnSelection));
  RunQuery("WDC Q4 (discriminative contradictions)", &wdc_system, wdc.repo,
           wdc.queries[3]);

  std::printf(
      "\nPaper shape: when contradictions are pairwise (ChEMBL), at most\n"
      "one view is pruned per step and best ~= worst; when contradictions\n"
      "are shared across many views (WDC), each step prunes several views\n"
      "even in the worst case.\n");
}

}  // namespace
}  // namespace bench
}  // namespace ver

int main() {
  ver::bench::Run();
  return 0;
}
