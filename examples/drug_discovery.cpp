// Drug-discovery scenario: an ML engineer needs a training table joining
// compound names with measured activity values, somewhere inside a
// ChEMBL-like pathless collection (the paper's motivating use case).
//
// Shows the full funnel: noisy QBE input -> column selection -> join graph
// search -> materialization -> 4C distillation, with per-stage statistics
// and timings.

#include <cstdio>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "core/ver.h"
#include "workload/chembl_gen.h"
#include "workload/noisy_query.h"

using namespace ver;  // NOLINT — example brevity

int main() {
  // Generate the ChEMBL-like collection (tables such as compounds, assays,
  // activities, target_dictionary... with no PK/FK metadata).
  ChemblSpec spec;
  GeneratedDataset dataset = GenerateChemblLike(spec);
  std::printf("Collection: %d tables / %lld rows\n",
              dataset.repo.num_tables(),
              static_cast<long long>(dataset.repo.TotalRows()));

  Ver system(&dataset.repo, VerConfig());

  // Q4 is the (compound pref_name, standard_value) task; use a Medium-noise
  // query — one of the three examples is misleading.
  const GroundTruthQuery& gt = dataset.queries[3];
  Result<ExampleQuery> query =
      MakeNoisyQuery(dataset.repo, gt, NoiseLevel::kMedium, 3, /*seed=*/11);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  std::printf("\nQBE input (2 columns x 3 rows, medium noise):\n");
  for (int a = 0; a < query->num_attributes(); ++a) {
    std::printf("  attribute %d:", a);
    for (const std::string& v : query->columns[a]) {
      std::printf(" [%s]", v.c_str());
    }
    std::printf("\n");
  }

  QueryResult result =

      system.Execute(DiscoveryRequest::ForQuery(query.value())).result;

  std::printf("\nFunnel:\n");
  std::printf("  candidate columns : ");
  for (const auto& attr : result.selection) {
    std::printf("%zu ", attr.candidates.size());
  }
  std::printf("(per query attribute)\n");
  std::printf("  joinable groups   : %lld\n",
              static_cast<long long>(result.search.num_joinable_groups));
  std::printf("  join graphs       : %lld\n",
              static_cast<long long>(result.search.num_join_graphs));
  std::printf("  materialized views: %zu\n", result.views.size());
  std::printf("  after distillation: %zu  (C1 merged %lld, C2 merged %lld)\n",
              result.distillation.surviving.size(),
              static_cast<long long>(result.distillation.num_compatible_pairs),
              static_cast<long long>(result.distillation.num_contained_pairs));

  std::printf("\nStage timings: CS=%.1fms JGS=%.1fms M=%.1fms 4C=%.1fms\n",
              result.timing.column_selection_s * 1000,
              result.timing.join_graph_search_s * 1000,
              result.timing.materialize_s * 1000,
              result.timing.four_c_s * 1000);

  // Did the funnel keep the view we wanted? Views 4C pruned carry no
  // cells, so match against every candidate view, rebuilt.
  const std::vector<View> views = MaterializeCandidates(
      dataset.repo, result.search.candidates, system.config().search,
      nullptr);
  Result<std::vector<int>> matches =
      GroundTruthMatches(dataset.repo, gt, views);
  if (matches.ok() && !matches->empty()) {
    const View& v = views[matches->front()];
    std::printf("\nGround-truth view found: %s (%lld rows), via %s\n",
                v.table.name().c_str(),
                static_cast<long long>(v.table.num_rows()),
                v.graph.ToString(dataset.repo).c_str());
    std::printf("%s\n", v.table.ToString(5).c_str());
  } else {
    std::printf("\nGround-truth view NOT among the candidates.\n");
  }
  return 0;
}
