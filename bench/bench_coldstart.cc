// Cold start: build-from-scratch vs snapshot load vs memory-capped paged
// serve.
//
// The production north star is a server that comes up in milliseconds: the
// offline index is built once (ver_cli build-index), persisted as a
// versioned snapshot, and every process start thereafter loads it instead
// of re-profiling the repository. This bench measures three start paths on
// the Fig. 3 synthetic open-data repository (full portion) — rebuild,
// resident snapshot load (repository + engine from the file), and paged
// load under a memory budget a quarter of the snapshot (mmap + buffer
// pool, cold start touches O(pages read) instead of O(file)) — plus the
// first-query latency each mode pays, checks the loaded engines equal the
// built one, and records everything as JSON (default BENCH_coldstart.json,
// overridable with VER_BENCH_JSON).
//
// CI greps stdout for WARNING as the regression gate: a WARNING fires when
// the paged cold start is not at least 5x faster than the resident full
// load, or when the pool's charged residency exceeds the budget once the
// first query's pins release.

#include <filesystem>
#include <thread>

#include "bench_common.h"
#include "discovery/engine.h"

namespace ver {
namespace bench {
namespace {

constexpr int kParallelWorkers = 8;
constexpr int kRepetitions = 3;

struct ColdStartMeasurement {
  int num_tables = 0;
  int64_t num_columns = 0;
  int64_t joinable_pairs = 0;
  double build_serial_s = 0;
  double build_parallel_s = 0;
  double save_s = 0;
  double load_s = 0;
  int64_t snapshot_bytes = 0;
  // Full server start (repository + engine out of the snapshot file),
  // resident vs paged under `paged_budget_bytes`, and the first query
  // each pays afterwards (the paged mode's faults land here).
  double resident_cold_s = 0;
  double paged_cold_s = 0;
  double first_query_resident_s = 0;
  double first_query_paged_s = 0;
  int64_t paged_budget_bytes = 0;
  int64_t paged_pool_resident_bytes = 0;  // after the first query drains
  int64_t paged_pool_peak_resident_bytes = 0;
  int64_t paged_pool_misses = 0;

  double speedup_vs_serial() const {
    return load_s == 0 ? 0 : build_serial_s / load_s;
  }
  double speedup_vs_parallel() const {
    return load_s == 0 ? 0 : build_parallel_s / load_s;
  }
  double paged_cold_speedup() const {
    return paged_cold_s == 0 ? 0 : resident_cold_s / paged_cold_s;
  }
};

// VmRSS from /proc/self/status, 0 where unavailable. Context only — the
// gated number is the pool's own residency accounting, which is exact.
int64_t ProcessRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %lld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<int64_t>(kb) * 1024;
}

void WriteJson(const ColdStartMeasurement& m) {
  const char* env = std::getenv("VER_BENCH_JSON");
  std::string path = env != nullptr ? env : "BENCH_coldstart.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"coldstart_snapshot_load\",\n");
  std::fprintf(f, "  \"parallel_workers\": %d,\n", kParallelWorkers);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"scale\": %d,\n", BenchScale());
  std::fprintf(f, "  \"tables\": %d,\n  \"columns\": %lld,\n",
               m.num_tables, static_cast<long long>(m.num_columns));
  std::fprintf(f, "  \"joinable_pairs\": %lld,\n",
               static_cast<long long>(m.joinable_pairs));
  std::fprintf(f, "  \"build_serial_s\": %.6f,\n", m.build_serial_s);
  std::fprintf(f, "  \"build_parallel_s\": %.6f,\n", m.build_parallel_s);
  std::fprintf(f, "  \"save_s\": %.6f,\n", m.save_s);
  std::fprintf(f, "  \"load_s\": %.6f,\n", m.load_s);
  std::fprintf(f, "  \"snapshot_bytes\": %lld,\n",
               static_cast<long long>(m.snapshot_bytes));
  std::fprintf(f, "  \"load_speedup_vs_serial_build\": %.3f,\n",
               m.speedup_vs_serial());
  std::fprintf(f, "  \"load_speedup_vs_parallel_build\": %.3f,\n",
               m.speedup_vs_parallel());
  std::fprintf(f, "  \"resident_cold_s\": %.6f,\n", m.resident_cold_s);
  std::fprintf(f, "  \"paged_cold_s\": %.6f,\n", m.paged_cold_s);
  std::fprintf(f, "  \"paged_cold_speedup_x\": %.3f,\n",
               m.paged_cold_speedup());
  std::fprintf(f, "  \"first_query_resident_s\": %.6f,\n",
               m.first_query_resident_s);
  std::fprintf(f, "  \"first_query_paged_s\": %.6f,\n",
               m.first_query_paged_s);
  std::fprintf(f, "  \"paged_budget_bytes\": %lld,\n",
               static_cast<long long>(m.paged_budget_bytes));
  std::fprintf(f, "  \"paged_pool_resident_bytes\": %lld,\n",
               static_cast<long long>(m.paged_pool_resident_bytes));
  std::fprintf(f, "  \"paged_pool_peak_resident_bytes\": %lld,\n",
               static_cast<long long>(m.paged_pool_peak_resident_bytes));
  std::fprintf(f, "  \"paged_pool_misses\": %lld,\n",
               static_cast<long long>(m.paged_pool_misses));
  std::fprintf(f, "  \"process_rss_bytes\": %lld\n",
               static_cast<long long>(ProcessRssBytes()));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

void Run() {
  PrintHeader("Cold start: snapshot load vs index rebuild",
              "the deployment story around Fig. 3");
  GeneratedDataset dataset =
      GenerateOpenDataLike(BenchOpenDataSpec(1.0, 1));
  ColdStartMeasurement m;
  m.num_tables = dataset.repo.num_tables();
  m.num_columns = dataset.repo.TotalColumns();

  namespace fs = std::filesystem;
  std::string path =
      (fs::temp_directory_path() / "ver_coldstart.versnap").string();

  // Build (serial and parallel), best of N.
  std::unique_ptr<DiscoveryEngine> engine;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    DiscoveryOptions options;
    options.parallelism = 1;
    WallTimer timer;
    engine = DiscoveryEngine::Build(dataset.repo, options);
    double s = timer.ElapsedSeconds();
    if (rep == 0 || s < m.build_serial_s) m.build_serial_s = s;
  }
  m.joinable_pairs = engine->num_joinable_column_pairs();
  for (int rep = 0; rep < kRepetitions; ++rep) {
    DiscoveryOptions options;
    options.parallelism = kParallelWorkers;
    WallTimer timer;
    std::unique_ptr<DiscoveryEngine> parallel =
        DiscoveryEngine::Build(dataset.repo, options);
    double s = timer.ElapsedSeconds();
    if (rep == 0 || s < m.build_parallel_s) m.build_parallel_s = s;
    if (parallel->num_joinable_column_pairs() != m.joinable_pairs) {
      std::fprintf(stderr, "DETERMINISM VIOLATION: parallel build found %lld "
                           "pairs, serial %lld\n",
                   static_cast<long long>(
                       parallel->num_joinable_column_pairs()),
                   static_cast<long long>(m.joinable_pairs));
      std::exit(1);
    }
  }

  // Save once, then load best of N.
  {
    WallTimer timer;
    Status saved = engine->Save(path);
    m.save_s = timer.ElapsedSeconds();
    if (!saved.ok()) {
      std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
      std::exit(1);
    }
  }
  std::error_code ec;
  m.snapshot_bytes = static_cast<int64_t>(fs::file_size(path, ec));
  for (int rep = 0; rep < kRepetitions; ++rep) {
    WallTimer timer;
    Result<std::unique_ptr<DiscoveryEngine>> loaded =
        DiscoveryEngine::Load(dataset.repo, path);
    double s = timer.ElapsedSeconds();
    if (rep == 0 || s < m.load_s) m.load_s = s;
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      std::exit(1);
    }
    if (loaded.value()->num_joinable_column_pairs() != m.joinable_pairs) {
      std::fprintf(stderr, "SNAPSHOT MISMATCH: loaded %lld pairs, built "
                           "%lld\n",
                   static_cast<long long>(
                       loaded.value()->num_joinable_column_pairs()),
                   static_cast<long long>(m.joinable_pairs));
      std::exit(1);
    }
  }
  // --- server cold start out of the file: resident vs memory-capped paged.
  // Resident reconstructs the repository and copies every index out of the
  // snapshot; paged mmaps it under a budget of a quarter of the file and
  // lets the first query fault in only what it touches.
  ExampleQuery first_query;
  {
    Result<ExampleQuery> q = MakeNoisyQuery(dataset.repo, dataset.queries[0],
                                            NoiseLevel::kZero, 3, 11);
    if (!q.ok()) {
      std::fprintf(stderr, "first-query construction failed: %s\n",
                   q.status().ToString().c_str());
      std::exit(1);
    }
    first_query = std::move(q).value();
  }
  m.paged_budget_bytes =
      std::max<int64_t>(m.snapshot_bytes / 4, 1 << 20);
  for (int rep = 0; rep < kRepetitions; ++rep) {
    WallTimer timer;
    Result<TableRepository> repo = DiscoveryEngine::LoadRepository(path);
    if (!repo.ok()) {
      std::fprintf(stderr, "resident repo load failed: %s\n",
                   repo.status().ToString().c_str());
      std::exit(1);
    }
    Result<std::unique_ptr<DiscoveryEngine>> loaded =
        DiscoveryEngine::Load(repo.value(), path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "resident load failed: %s\n",
                   loaded.status().ToString().c_str());
      std::exit(1);
    }
    double s = timer.ElapsedSeconds();
    if (rep == 0 || s < m.resident_cold_s) m.resident_cold_s = s;
    VerConfig config;
    Ver served(&repo.value(), config, std::move(loaded).value());
    WallTimer qtimer;
    QueryResult qr =
        served.Execute(DiscoveryRequest::ForQuery(first_query)).result;
    double qs = qtimer.ElapsedSeconds();
    if (rep == 0 || qs < m.first_query_resident_s) {
      m.first_query_resident_s = qs;
    }
    (void)qr;
  }
  bool paged_active = false;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    PagingOptions paging;
    paging.enabled = true;
    paging.memory_budget_bytes =
        static_cast<uint64_t>(m.paged_budget_bytes);
    WallTimer timer;
    Result<TableRepository> repo =
        DiscoveryEngine::LoadRepository(path, paging);
    if (!repo.ok()) {
      std::fprintf(stderr, "paged repo load failed: %s\n",
                   repo.status().ToString().c_str());
      std::exit(1);
    }
    Result<std::unique_ptr<DiscoveryEngine>> loaded =
        DiscoveryEngine::Load(repo.value(), path, paging);
    if (!loaded.ok()) {
      std::fprintf(stderr, "paged load failed: %s\n",
                   loaded.status().ToString().c_str());
      std::exit(1);
    }
    double s = timer.ElapsedSeconds();
    if (rep == 0 || s < m.paged_cold_s) m.paged_cold_s = s;
    paged_active = loaded.value()->paged();
    std::shared_ptr<PagerRuntime> pager = loaded.value()->pager();
    VerConfig config;
    Ver served(&repo.value(), config, std::move(loaded).value());
    WallTimer qtimer;
    QueryResult qr =
        served.Execute(DiscoveryRequest::ForQuery(first_query)).result;
    double qs = qtimer.ElapsedSeconds();
    if (rep == 0 || qs < m.first_query_paged_s) m.first_query_paged_s = qs;
    (void)qr;
    if (pager != nullptr) {
      BufferPoolStats ps = pager->pool_stats();
      m.paged_pool_resident_bytes = ps.resident_bytes;
      m.paged_pool_peak_resident_bytes = ps.peak_resident_bytes;
      m.paged_pool_misses = ps.misses;
    }
  }
  std::remove(path.c_str());

  TextTable table({"#Tables", "#Cols", "Join pairs", "Build serial",
                   "Build par8", "Save", "Load", "Load speedup"});
  char speedup[48];
  std::snprintf(speedup, sizeof(speedup), "%.1fx / %.1fx",
                m.speedup_vs_serial(), m.speedup_vs_parallel());
  table.AddRow({std::to_string(m.num_tables), std::to_string(m.num_columns),
                std::to_string(m.joinable_pairs),
                FormatSeconds(m.build_serial_s),
                FormatSeconds(m.build_parallel_s), FormatSeconds(m.save_s),
                FormatSeconds(m.load_s), speedup});
  table.Print();

  TextTable cold({"Start mode", "Cold start", "First query",
                  "Pool resident", "Budget"});
  cold.AddRow({"resident", FormatSeconds(m.resident_cold_s),
               FormatSeconds(m.first_query_resident_s), "-", "-"});
  cold.AddRow({"paged", FormatSeconds(m.paged_cold_s),
               FormatSeconds(m.first_query_paged_s),
               std::to_string(m.paged_pool_resident_bytes),
               std::to_string(m.paged_budget_bytes)});
  cold.Print();

  std::printf("snapshot: %lld bytes; loaded engine verified against the "
              "built one.\nLoad skips profiling, LSH banding and join-edge "
              "scoring entirely, so the\nspeedup grows with repository "
              "size. Paged cold start maps the file instead of\ncopying it "
              "(%.1fx vs resident) and charges only touched extents to the "
              "pool.\n",
              static_cast<long long>(m.snapshot_bytes),
              m.paged_cold_speedup());

  // --- regression gates (CI greps stdout for WARNING) ---
  if (paged_active) {
    if (m.paged_cold_speedup() < 5.0) {
      std::printf("WARNING: paged cold start is only %.2fx faster than the "
                  "resident full load (gate: >= 5x)\n",
                  m.paged_cold_speedup());
    }
    if (m.paged_pool_resident_bytes > m.paged_budget_bytes) {
      std::printf("WARNING: pool residency %lld bytes exceeds the %lld "
                  "byte budget after the first query drained\n",
                  static_cast<long long>(m.paged_pool_resident_bytes),
                  static_cast<long long>(m.paged_budget_bytes));
    }
    if (m.paged_pool_misses == 0) {
      std::printf("WARNING: paged first query faulted no extents — the "
                  "paged path did not actually page\n");
    }
  } else {
    std::printf("note: paging unavailable on this platform; paged gates "
                "skipped (resident fallback measured instead)\n");
  }
  WriteJson(m);
}

}  // namespace
}  // namespace bench
}  // namespace ver

int main() {
  ver::bench::Run();
  return 0;
}
