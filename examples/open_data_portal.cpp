// Open-data-portal scenario: the collection lives as CSV files on disk
// (like a crawl of data portals), gets loaded as a pathless repository,
// views are discovered in memory, and the surviving views are written back
// to disk as CSV files.

#include <cstdio>
#include <filesystem>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "core/ver.h"
#include "table/csv.h"
#include "workload/noisy_query.h"
#include "workload/open_data_gen.h"

using namespace ver;  // NOLINT — example brevity

int main() {
  namespace fs = std::filesystem;
  fs::path root = fs::temp_directory_path() / "ver_open_data_example";
  fs::path data_dir = root / "portal";
  fs::path views_dir = root / "views";
  fs::remove_all(root);

  // 1. Write a synthetic portal crawl to disk as plain CSV files...
  OpenDataSpec spec;
  spec.num_tables = 80;
  spec.num_queries = 5;
  GeneratedDataset generated = GenerateOpenDataLike(spec);
  Status save = generated.repo.SaveDirectory(data_dir.string());
  if (!save.ok()) {
    std::fprintf(stderr, "save: %s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("Wrote %d CSV files to %s\n", generated.repo.num_tables(),
              data_dir.string().c_str());

  // 2. ...and load them back the way a user would: a directory of CSVs,
  // no schema, no keys, no join paths.
  TableRepository repo;
  Status load = repo.LoadDirectory(data_dir.string());
  if (!load.ok()) {
    std::fprintf(stderr, "load: %s\n", load.ToString().c_str());
    return 1;
  }
  std::printf("Loaded %d tables (%lld rows total)\n", repo.num_tables(),
              static_cast<long long>(repo.TotalRows()));

  // 3. Discover views.
  Ver system(&repo, VerConfig());

  // Reuse a generated ground-truth query; resolve it against the reloaded
  // repository (table names are stable).
  const GroundTruthQuery& gt = generated.queries.front();
  Result<ExampleQuery> query =
      MakeNoisyQuery(repo, gt, NoiseLevel::kZero, 3, /*seed=*/23);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  QueryResult result =
      system.Execute(DiscoveryRequest::ForQuery(query.value())).result;

  std::printf("\n%zu candidate views (%zu after distillation)\n",
              result.views.size(), result.distillation.surviving.size());
  std::printf("Timings: CS=%.1fms JGS=%.1fms M=%.1fms 4C=%.1fms\n",
              result.timing.column_selection_s * 1000,
              result.timing.join_graph_search_s * 1000,
              result.timing.materialize_s * 1000,
              result.timing.four_c_s * 1000);

  // 4. Write the surviving views next to the portal, one CSV file each.
  fs::create_directories(views_dir);
  int shown = 0;
  for (int idx : result.distillation.surviving) {
    const View& v = result.views[idx];
    std::string path = (views_dir / (v.table.name() + ".csv")).string();
    Status written = WriteCsvFile(v.table, path);
    if (!written.ok()) {
      std::fprintf(stderr, "write: %s\n", written.ToString().c_str());
      return 1;
    }
    if (shown++ < 3) {
      std::printf("\nview_%lld (%lld rows) written to %s\n",
                  static_cast<long long>(v.id),
                  static_cast<long long>(v.table.num_rows()), path.c_str());
    }
  }

  fs::remove_all(root);
  return 0;
}
