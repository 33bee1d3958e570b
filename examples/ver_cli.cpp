// ver_cli: command-line view discovery over a directory of CSV files.
//
// Subcommands (the production snapshot workflow):
//
//   ver_cli build-index [--parallelism=N] --index-path=PATH <csv-dir>
//       Profiles and indexes the repository offline, then persists the
//       discovery snapshot to PATH (versioned binary format, atomic write).
//       Rerun it to rewrite a snapshot saved in an older format version.
//
//   ver_cli query --index-path=PATH [<csv-dir>] <examples-A> [<examples-B> ...]
//       Loads the snapshot (no rebuild) and runs one QBE query, where each
//       <examples-X> is a comma-separated list of example values for one
//       output attribute, e.g.  "Boston,Chicago" "Wu,Johnson". When
//       <csv-dir> is omitted the repository itself loads from the
//       snapshot's columnar table sections — zero CSV parsing.
//       Per-request knobs ride along as flags: --theta=N --rho=N --k=N
//       --no-distill --stop-after=N --deadline=SECONDS. With --stop-after
//       the pipeline streams each surviving view as it is classified and
//       stops once N views survive.
//
//   ver_cli serve --index-path=PATH [--memory-budget=SIZE] [<csv-dir>]
//       Loads the snapshot (tables from <csv-dir>, or from the snapshot
//       itself when omitted) and serves queries from stdin, one per line.
//       --memory-budget=SIZE (e.g. 64m, 2g, plain bytes) enables paged
//       serving: the snapshot is mmapped and column/posting payloads page
//       in on demand under a buffer-pool residency budget, so a snapshot
//       larger than RAM (or larger than the budget) still serves — queries
//       answer bit-identically to resident mode. One pool spans hot swaps,
//       so the budget holds while old and new snapshots are both alive.
//       REPL commands:
//         a1,a2|b1,b2          run a QBE query (| separates attributes)
//         opts k=v ...         sticky per-request knobs for later queries:
//                              theta= rho= k= stop= deadline= nodistill
//                              ('opts clear' resets, bare 'opts' prints)
//         stats                print server statistics (queue depth, cache,
//                              per-knob override usage, latency, pool)
//         swap <snapshot>      hot-swap to a newer snapshot (zero downtime)
//         quit                 exit (EOF works too)
//
//   ver_cli demo-data <output-dir>
//       Writes a generated open-data portal to <output-dir> and prints the
//       example columns of a known-answer query to stdout (one line per
//       attribute) — handy for scripting an end-to-end smoke test.
//
// Legacy one-shot mode (kept for muscle memory) builds the index in memory
// and queries immediately:
//
//   ver_cli [--parallelism=N] <csv-dir> <examples-A> <examples-B> [...]
//
// --parallelism=N sets the worker count for offline index construction
// (DiscoveryOptions::parallelism): 1 = serial, 0 = all hardware threads
// (the default), at most 256; any other value exits with code 2. Run
// without arguments it demos itself on a generated open-data corpus,
// exercising the full build-index -> query round trip.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "api/query_observer.h"
#include "core/view_graph_export.h"
#include "core/ver.h"
#include "serving/ver_server.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "workload/noisy_query.h"
#include "workload/open_data_gen.h"

using namespace ver;  // NOLINT — example brevity

namespace {

// Strict integer parse; rejects empty/trailing garbage (atoi would map
// "one" to 0 = all cores silently).
bool ParseInt(const std::string& text, int* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long v = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE ||
      v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

// Byte size with an optional k/m/g suffix (binary units): "64m", "2g",
// "1048576".
bool ParseByteSize(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  std::string digits = text;
  uint64_t multiplier = 1;
  char suffix = static_cast<char>(std::tolower(digits.back()));
  if (suffix == 'k' || suffix == 'm' || suffix == 'g') {
    multiplier = suffix == 'k' ? (1ull << 10)
                               : suffix == 'm' ? (1ull << 20) : (1ull << 30);
    digits.pop_back();
    if (digits.empty()) return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(digits.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE) return false;
  if (v > std::numeric_limits<uint64_t>::max() / multiplier) return false;
  *out = static_cast<uint64_t>(v) * multiplier;
  return true;
}

// Per-request knobs accepted by `query` flags and the serve REPL's `opts`
// command; Resolve() folds them into a DiscoveryRequest.
struct RequestFlags {
  RequestOverrides overrides;
  int stop_after = 0;
  double deadline_s = 0;

  // A negative deadline means "explicitly none", so any non-zero one
  // counts as set.
  bool any() const {
    return overrides.any() || stop_after > 0 || deadline_s != 0;
  }

  void ApplyTo(DiscoveryRequest* request) const {
    request->overrides = overrides;
    request->stop_after = stop_after;
    request->deadline_s = deadline_s;
  }

  std::string Describe() const {
    std::string out;
    auto add = [&out](const std::string& piece) {
      if (!out.empty()) out += " ";
      out += piece;
    };
    if (overrides.theta) add("theta=" + std::to_string(*overrides.theta));
    if (overrides.max_hops) add("rho=" + std::to_string(*overrides.max_hops));
    if (overrides.expected_views) {
      add("k=" + std::to_string(*overrides.expected_views));
    }
    if (overrides.run_distillation && !*overrides.run_distillation) {
      add("nodistill");
    }
    if (stop_after > 0) add("stop=" + std::to_string(stop_after));
    if (deadline_s != 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "deadline=%g", deadline_s);
      add(buf);
    }
    return out.empty() ? "(defaults)" : out;
  }

  /// Parses one key=value token ("theta=2", "nodistill", ...). Returns
  /// false (with a message on stderr) on an unknown option, a value that
  /// does not parse or a value the request would refuse; the flags keep
  /// their previous value then.
  bool ParseToken(const std::string& token) {
    if (token == "nodistill" || token == "no-distill") {
      overrides.run_distillation = false;
      return true;
    }
    size_t eq = token.find('=');
    std::string key = token.substr(0, eq);  // whole token when no '='
    std::string value = eq == std::string::npos ? "" : token.substr(eq + 1);
    auto bad_value = [&](const char* kind) {
      std::fprintf(stderr, "request option '%s' needs %s value (got '%s')\n",
                   key.c_str(), kind, value.c_str());
      return false;
    };
    int v = 0;
    if (key == "theta" || key == "rho" || key == "k") {
      if (!ParseInt(value, &v)) return bad_value("an integer");
      // Same rule as RequestOverrides::Validate, checked here rather than
      // failing every later query.
      RequestOverrides next = overrides;
      if (key == "theta") next.theta = v;
      if (key == "rho") next.max_hops = v;
      if (key == "k") next.expected_views = v;
      Status valid = next.Validate();
      if (!valid.ok()) {
        std::fprintf(stderr, "request option '%s' refused: %s\n",
                     token.c_str(), valid.ToString().c_str());
        return false;
      }
      overrides = next;
      return true;
    }
    if (key == "stop") {
      if (!ParseInt(value, &v)) return bad_value("an integer");
      stop_after = v;
      return true;
    }
    if (key == "deadline") {
      double d = 0;
      // Same rule as DiscoveryRequest::Validate: NaN and infinities are
      // refused here rather than failing every later query.
      if (!ParseDouble(value, &d) || !std::isfinite(d)) {
        return bad_value("a finite seconds");
      }
      deadline_s = d;
      return true;
    }
    std::fprintf(stderr, "unrecognized request option '%s' (known: theta= "
                         "rho= k= stop= deadline= nodistill)\n",
                 token.c_str());
    return false;
  }
};

// Prints pipeline progress; with `print_views` (streaming StopAfter runs)
// each view is printed the moment the pipeline classifies it as surviving —
// the streaming face of the request/response API.
class StreamingPrinter : public QueryObserver {
 public:
  StreamingPrinter(const TableRepository* repo, bool print_views)
      : repo_(repo), print_views_(print_views) {}

  void OnStageFinished(PipelineStage stage, double elapsed_s) override {
    std::fprintf(stderr, "  [%s done in %.1fms]\n",
                 PipelineStageToString(stage), elapsed_s * 1000);
  }
  void OnViewDelivered(const View& view, int delivery_index,
                       double elapsed_s) override {
    if (!print_views_) return;
    std::printf("view #%d at %.1fms: %s (%lld rows)\n", delivery_index + 1,
                elapsed_s * 1000, view.graph.ToString(*repo_).c_str(),
                static_cast<long long>(view.num_rows()));
  }

 private:
  const TableRepository* repo_;
  bool print_views_;
};

bool LoadRepo(const std::string& dir, TableRepository* repo) {
  Status load = repo->LoadDirectory(dir);
  if (!load.ok()) {
    std::fprintf(stderr, "error: %s\n", load.ToString().c_str());
    return false;
  }
  std::fprintf(stderr, "loaded %d tables (%lld rows) from %s\n",
               repo->num_tables(), static_cast<long long>(repo->TotalRows()),
               dir.c_str());
  return true;
}

// With a CSV directory: parse it. Without one: reconstruct the repository
// from the snapshot's columnar table section — the zero-CSV cold-start
// path.
bool LoadRepoFromDirOrSnapshot(const std::string& dir,
                               const std::string& index_path,
                               TableRepository* repo,
                               const PagingOptions& paging = PagingOptions()) {
  if (!dir.empty()) return LoadRepo(dir, repo);
  WallTimer timer;
  Result<TableRepository> loaded =
      DiscoveryEngine::LoadRepository(index_path, paging);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
    return false;
  }
  *repo = std::move(loaded).value();
  std::fprintf(stderr,
               "loaded %d tables (%lld rows) from snapshot %s in %.3fs "
               "(no CSV parsing%s)\n",
               repo->num_tables(), static_cast<long long>(repo->TotalRows()),
               index_path.c_str(), timer.ElapsedSeconds(),
               repo->pager() != nullptr ? "; paged, columns stay in the map"
                                        : "");
  return true;
}

ExampleQuery QueryFromColumnArgs(const std::vector<std::string>& column_args) {
  std::vector<std::vector<std::string>> columns;
  for (const std::string& arg : column_args) {
    std::vector<std::string> values;
    for (std::string& v : Split(arg, ',')) {
      std::string trimmed = Trim(v);
      if (!trimmed.empty()) values.push_back(std::move(trimmed));
    }
    columns.push_back(std::move(values));
  }
  return ExampleQuery::FromColumns(std::move(columns));
}

void PrintResult(const TableRepository& repo, const QueryResult& result) {
  std::printf("\n%zu candidate views; %zu after 4C distillation "
              "(CS %.1fms, JGS %.1fms, M %.1fms, 4C %.1fms)\n",
              result.views.size(), result.distillation.surviving.size(),
              result.timing.column_selection_s * 1000,
              result.timing.join_graph_search_s * 1000,
              result.timing.materialize_s * 1000,
              result.timing.four_c_s * 1000);

  std::printf("\n%s\n", DistillationReport(result.views,
                                           result.distillation).c_str());

  int shown = 0;
  for (const OverlapRankedView& r : result.automatic_ranking) {
    const View& v = result.views[r.view_index];
    std::printf("#%d (overlap %d) %s\n%s\n", ++shown, r.overlap,
                v.graph.ToString(repo).c_str(), v.table.ToString(5).c_str());
    if (shown >= 3) break;
  }
}

int BuildIndex(const std::string& dir, const std::string& index_path,
               int parallelism) {
  TableRepository repo;
  if (!LoadRepo(dir, &repo)) return 1;

  DiscoveryOptions options;
  options.parallelism = parallelism;
  WallTimer timer;
  std::unique_ptr<DiscoveryEngine> engine = DiscoveryEngine::Build(repo, options);
  double build_s = timer.ElapsedSeconds();

  timer.Restart();
  Status saved = engine->Save(index_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::error_code ec;
  uintmax_t bytes = std::filesystem::file_size(index_path, ec);
  std::printf("indexed %lld joinable column pairs in %.2fs; "
              "wrote %s (%lld bytes) in %.3fs\n",
              static_cast<long long>(engine->num_joinable_column_pairs()),
              build_s, index_path.c_str(),
              ec ? 0LL : static_cast<long long>(bytes),
              timer.ElapsedSeconds());
  return 0;
}

// Loads the snapshot when `index_path` is set, otherwise builds in memory.
std::unique_ptr<Ver> MakeSystem(const TableRepository& repo,
                                const std::string& index_path,
                                int parallelism) {
  VerConfig config;
  if (index_path.empty()) {
    config.discovery.parallelism = parallelism;
    return std::make_unique<Ver>(&repo, config);
  }
  WallTimer timer;
  Result<std::unique_ptr<DiscoveryEngine>> engine =
      DiscoveryEngine::Load(repo, index_path);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return nullptr;
  }
  std::fprintf(stderr, "loaded snapshot %s in %.3fs (no rebuild)\n",
               index_path.c_str(), timer.ElapsedSeconds());
  return std::make_unique<Ver>(&repo, config, std::move(engine).value());
}

int RunQueryOverDirectory(const std::string& dir, const ExampleQuery& query,
                          int parallelism, const std::string& index_path,
                          const RequestFlags& flags) {
  TableRepository repo;
  if (!LoadRepoFromDirOrSnapshot(dir, index_path, &repo)) return 1;

  std::unique_ptr<Ver> system = MakeSystem(repo, index_path, parallelism);
  if (system == nullptr) return 1;
  std::printf("indexed: %lld joinable column pairs\n",
              static_cast<long long>(
                  system->engine().num_joinable_column_pairs()));

  DiscoveryRequest request = DiscoveryRequest::ForQuery(query);
  flags.ApplyTo(&request);
  if (flags.any()) {
    std::fprintf(stderr, "request options: %s\n", flags.Describe().c_str());
  }
  StreamingPrinter printer(&repo, /*print_views=*/flags.stop_after > 0);
  DiscoveryResponse response = system->Execute(request, &printer);
  if (!response.status.ok()) {
    std::fprintf(stderr, "error: %s\n", response.status.ToString().c_str());
    return 1;
  }
  if (response.early_terminated) {
    std::printf("(stopped early after %d surviving views)\n",
                response.views_delivered);
  }
  PrintResult(repo, response.result);
  return 0;
}

int ServeFromSnapshot(const std::string& dir, const std::string& index_path,
                      const RequestFlags& initial_flags,
                      uint64_t memory_budget) {
  if (index_path.empty()) {
    std::fprintf(stderr, "error: serve needs --index-path\n");
    return 2;
  }
  PagingOptions paging;
  if (memory_budget > 0) {
    paging.enabled = true;
    paging.memory_budget_bytes = memory_budget;
  }
  TableRepository repo;
  if (!LoadRepoFromDirOrSnapshot(dir, index_path, &repo, paging)) return 1;
  // Later loads (the engine now, hot swaps below) charge the same pool, so
  // the budget covers every snapshot this server ever has alive at once.
  if (repo.pager() != nullptr) paging.pool = repo.pager()->pool();

  Result<std::unique_ptr<DiscoveryEngine>> engine =
      DiscoveryEngine::Load(repo, index_path, paging);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  if (paging.enabled && paging.pool == nullptr &&
      engine.value()->pager() != nullptr) {
    paging.pool = engine.value()->pager()->pool();
  }
  VerServer server(std::make_shared<const Ver>(&repo, VerConfig(),
                                               std::move(engine).value()),
                   ServingOptions());
  if (memory_budget > 0) {
    std::fprintf(stderr, "paged serving under a %llu-byte budget\n",
                 static_cast<unsigned long long>(memory_budget));
  }
  std::fprintf(stderr,
               "serving %s from snapshot %s; enter queries as "
               "a1,a2|b1,b2 — 'opts k=v ...' sets per-request knobs, "
               "'stats' prints counters, 'swap <path>' hot-swaps, "
               "'quit' exits\n",
               dir.empty() ? "snapshot-embedded tables" : dir.c_str(),
               index_path.c_str());

  // Command-line knobs seed the session; `opts` adjusts them live.
  RequestFlags session_flags = initial_flags;
  if (session_flags.any()) {
    std::fprintf(stderr, "request options: %s\n",
                 session_flags.Describe().c_str());
  }
  auto print_stats = [&server] {
    ServerStats stats = server.stats();
    std::printf(
        "submitted=%lld ok=%lld rejected=%lld invalid=%lld "
        "cancelled=%lld deadline_exceeded=%lld swaps=%lld\n"
        "queue: depth=%lld peak=%lld\n"
        "cache: hits=%lld misses=%lld evictions=%lld\n"
        "pipeline: executions=%lld\n"
        "requests: with_overrides=%lld streaming=%lld\n",
        static_cast<long long>(stats.submitted),
        static_cast<long long>(stats.served_ok),
        static_cast<long long>(stats.rejected),
        static_cast<long long>(stats.invalid),
        static_cast<long long>(stats.cancelled),
        static_cast<long long>(stats.deadline_exceeded),
        static_cast<long long>(stats.snapshot_swaps),
        static_cast<long long>(stats.current_queue_depth),
        static_cast<long long>(stats.peak_queue_depth),
        static_cast<long long>(stats.cache_hits),
        static_cast<long long>(stats.cache_misses),
        static_cast<long long>(stats.cache_evictions),
        static_cast<long long>(stats.pipeline_executions),
        static_cast<long long>(stats.requests_with_overrides),
        static_cast<long long>(stats.requests_streaming));
    auto print_stage = [](const char* name, const LatencyStats& s) {
      if (s.count == 0) {
        std::printf("  %s: no samples\n", name);
        return;
      }
      std::printf(
          "  %s: n=%lld p50=%.3fms p99=%.3fms p999=%.3fms max=%.3fms\n",
          name, static_cast<long long>(s.count), s.p50_s * 1e3, s.p99_s * 1e3,
          s.p999_s * 1e3, s.max_s * 1e3);
    };
    std::printf("latency:\n");
    print_stage("queue_wait", stats.queue_wait);
    print_stage("pipeline", stats.pipeline);
    print_stage("total", stats.total);
    if (stats.paged) {
      std::printf(
          "pool: budget=%llu resident=%lld peak=%lld hits=%lld misses=%lld "
          "evictions=%lld pinned_overcommit=%lld\n",
          static_cast<unsigned long long>(stats.pool_budget_bytes),
          static_cast<long long>(stats.pool_resident_bytes),
          static_cast<long long>(stats.pool_peak_resident_bytes),
          static_cast<long long>(stats.pool_hits),
          static_cast<long long>(stats.pool_misses),
          static_cast<long long>(stats.pool_evictions),
          static_cast<long long>(stats.pool_pinned_overcommit));
    }
    for (int k = 0; k < RequestOverrides::kNumKnobs; ++k) {
      if (stats.override_uses[k] > 0) {
        std::printf("  override %s: %lld requests\n",
                    RequestOverrides::KnobName(k),
                    static_cast<long long>(stats.override_uses[k]));
      }
    }
  };

  std::string line;
  while (std::getline(std::cin, line)) {
    line = Trim(line);
    if (line.empty()) continue;
    if (line == "quit" || line == "exit") break;
    if (line == "stats") {
      print_stats();
      continue;
    }
    if (line == "opts" || line.rfind("opts ", 0) == 0) {
      std::string rest = line == "opts" ? "" : Trim(line.substr(5));
      if (rest == "clear") {
        session_flags = RequestFlags();
      } else {
        for (std::string& token : Split(rest, ' ')) {
          std::string trimmed = Trim(token);
          if (!trimmed.empty()) session_flags.ParseToken(trimmed);
        }
      }
      std::fprintf(stderr, "request options: %s\n",
                   session_flags.Describe().c_str());
      continue;
    }
    if (line.rfind("swap ", 0) == 0) {
      std::string path = Trim(line.substr(5));
      // Under paged serving the new snapshot opens its own map but charges
      // the shared pool: in-flight queries keep reading the old snapshot's
      // frames (its space retires only when the last reference drains)
      // while both stay inside one budget.
      Result<std::unique_ptr<DiscoveryEngine>> next =
          DiscoveryEngine::Load(repo, path, paging);
      if (!next.ok()) {
        std::fprintf(stderr, "swap failed: %s\n",
                     next.status().ToString().c_str());
        continue;
      }
      server.SwapSnapshot(std::make_shared<const Ver>(
          &repo, VerConfig(), std::move(next).value()));
      std::fprintf(stderr, "swapped in %s (in-flight queries finish on the "
                           "old snapshot)\n", path.c_str());
      continue;
    }
    DiscoveryRequest request =
        DiscoveryRequest::ForQuery(QueryFromColumnArgs(Split(line, '|')));
    session_flags.ApplyTo(&request);
    ServedResult served = server.Serve(std::move(request));
    if (!served.status.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   served.status.ToString().c_str());
      continue;
    }
    std::printf("%zu views (%zu after distillation)%s%s in %.1fms\n",
                served.result->views.size(),
                served.result->distillation.surviving.size(),
                served.cache_hit ? " [cache]" : "",
                served.early_terminated ? " [stopped early]" : "",
                served.run_s * 1000);
  }
  std::fprintf(stderr, "final stats:\n");
  print_stats();
  return 0;
}

// Writes a deterministic demo portal and prints the example columns of a
// known-answer query to stdout (one line per attribute).
int WriteDemoData(const std::string& dir, ExampleQuery* query_out) {
  OpenDataSpec spec;
  spec.num_tables = 60;
  spec.num_queries = 1;
  GeneratedDataset dataset = GenerateOpenDataLike(spec);
  Status saved = dataset.repo.SaveDirectory(dir);
  if (!saved.ok()) {
    std::fprintf(stderr, "demo setup failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  if (dataset.queries.empty()) {
    std::fprintf(stderr, "demo setup failed: generator produced no "
                         "ground-truth queries\n");
    return 1;
  }
  Result<ExampleQuery> query = MakeNoisyQuery(
      dataset.repo, dataset.queries[0], NoiseLevel::kZero, 3, 7);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %d tables to %s\n", dataset.repo.num_tables(),
               dir.c_str());
  for (const std::vector<std::string>& column : query.value().columns) {
    std::printf("%s\n", Join(column, ",").c_str());
  }
  if (query_out != nullptr) *query_out = std::move(query).value();
  return 0;
}

// Argument-free self-demo: the full snapshot round trip (build-index over a
// generated portal, then query through the loaded snapshot).
int SelfDemo(int parallelism) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "ver_cli_demo";
  fs::remove_all(dir);
  ExampleQuery query;
  int rc = WriteDemoData(dir.string(), &query);
  if (rc != 0) return rc;
  std::string index_path = (dir / "index.versnap").string();
  rc = BuildIndex(dir.string(), index_path, parallelism);
  if (rc == 0) {
    rc = RunQueryOverDirectory(dir.string(), query, parallelism, index_path,
                               RequestFlags());
  }
  fs::remove_all(dir);
  return rc;
}

}  // namespace

// Ceiling of --parallelism: index-build threads the CLI will start.
constexpr int kMaxParallelism = 256;

int main(int argc, char** argv) {
  int parallelism = 0;  // default: offline indexing on every core
  std::string index_path;
  uint64_t memory_budget = 0;  // 0 = resident serving
  RequestFlags request_flags;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Per-request pipeline knobs (query subcommand / legacy one-shot).
    if (arg == "--no-distill") {
      request_flags.overrides.run_distillation = false;
      continue;
    }
    if (arg.rfind("--theta=", 0) == 0 || arg.rfind("--rho=", 0) == 0 ||
        arg.rfind("--k=", 0) == 0 || arg.rfind("--stop-after=", 0) == 0 ||
        arg.rfind("--deadline=", 0) == 0) {
      // Map "--stop-after=N" to the REPL token grammar ("stop=N", ...).
      std::string token = arg.substr(2);
      if (token.rfind("stop-after=", 0) == 0) {
        token = "stop=" + token.substr(11);
      }
      if (!request_flags.ParseToken(token)) return 2;
      continue;
    }
    if (arg.rfind("--parallelism", 0) == 0) {
      std::string value;
      if (arg.rfind("--parallelism=", 0) == 0) {
        value = arg.substr(14);
      } else if (arg == "--parallelism" && i + 1 < argc) {
        value = argv[++i];
      }
      // Refused here, not clamped: a negative count would be written into
      // the snapshot's options, and a huge one would start that many
      // threads.
      if (!ParseInt(value, &parallelism) || parallelism < 0 ||
          parallelism > kMaxParallelism) {
        std::fprintf(stderr, "error: --parallelism must be 0-%d (got '%s')\n",
                     kMaxParallelism, value.c_str());
        return 2;
      }
    } else if (arg.rfind("--index-path=", 0) == 0) {
      index_path = arg.substr(13);
    } else if (arg == "--index-path") {
      if (i + 1 < argc) index_path = argv[++i];
      if (index_path.empty()) {
        std::fprintf(stderr, "error: --index-path needs a path\n");
        return 2;
      }
    } else if (arg.rfind("--memory-budget", 0) == 0) {
      std::string value;
      if (arg.rfind("--memory-budget=", 0) == 0) {
        value = arg.substr(16);
      } else if (arg == "--memory-budget" && i + 1 < argc) {
        value = argv[++i];
      }
      if (!ParseByteSize(value, &memory_budget) || memory_budget == 0) {
        std::fprintf(stderr, "error: --memory-budget needs a byte size "
                             "like 64m or 2g (got '%s')\n", value.c_str());
        return 2;
      }
    } else {
      args.push_back(std::move(arg));
    }
  }

  if (!args.empty()) {
    const std::string& cmd = args[0];
    if (cmd == "build-index") {
      if (args.size() != 2 || index_path.empty()) {
        std::fprintf(stderr, "usage: ver_cli build-index [--parallelism=N] "
                             "--index-path=PATH <csv-dir>\n"
                             "(N = index-build threads, 0 = all cores, "
                             "at most %d)\n", kMaxParallelism);
        return 2;
      }
      if (request_flags.any()) {
        std::fprintf(stderr, "error: per-request options (%s) do not apply "
                             "to build-index\n",
                     request_flags.Describe().c_str());
        return 2;
      }
      return BuildIndex(args[1], index_path, parallelism);
    }
    if (cmd == "query") {
      // The csv-dir is optional because the snapshot embeds the tables:
      // an argument that is not a directory is treated as the first
      // example column and the repository loads from the snapshot.
      bool has_dir = args.size() >= 2 &&
                     std::filesystem::is_directory(args[1]);
      // Guard against a typo'd directory silently becoming an example
      // value: example lists never contain a path separator.
      if (!has_dir && args.size() >= 2 &&
          args[1].find('/') != std::string::npos) {
        std::fprintf(stderr, "error: '%s' is not a directory\n",
                     args[1].c_str());
        return 2;
      }
      size_t first_example = has_dir ? 2 : 1;
      if (args.size() <= first_example || index_path.empty()) {
        std::fprintf(stderr, "usage: ver_cli query --index-path=PATH "
                             "[--theta=N] [--rho=N] [--k=N] [--no-distill] "
                             "[--stop-after=N] [--deadline=S] "
                             "[<csv-dir>] <examples-A> [<examples-B> ...]\n"
                             "(omit <csv-dir> to load tables from the "
                             "snapshot itself)\n");
        return 2;
      }
      return RunQueryOverDirectory(
          has_dir ? args[1] : std::string(),
          QueryFromColumnArgs(
              {args.begin() + static_cast<ptrdiff_t>(first_example),
               args.end()}),
          parallelism, index_path, request_flags);
    }
    if (cmd == "serve") {
      if (args.size() > 2) {
        std::fprintf(stderr, "usage: ver_cli serve --index-path=PATH "
                             "[--memory-budget=SIZE] [request options] "
                             "[<csv-dir>]\n"
                             "(omit <csv-dir> to load tables from the "
                             "snapshot itself)\n");
        return 2;
      }
      return ServeFromSnapshot(args.size() == 2 ? args[1] : std::string(),
                               index_path, request_flags, memory_budget);
    }
    if (cmd == "demo-data") {
      if (args.size() != 2) {
        std::fprintf(stderr, "usage: ver_cli demo-data <output-dir>\n");
        return 2;
      }
      return WriteDemoData(args[1], nullptr);
    }
    if (args.size() >= 2) {
      // Legacy one-shot mode: build in memory (or load --index-path) and
      // query immediately.
      return RunQueryOverDirectory(
          args[0], QueryFromColumnArgs({args.begin() + 1, args.end()}),
          parallelism, index_path, request_flags);
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
    return 2;
  }

  std::printf("usage: ver_cli build-index|query|serve|demo-data ... "
              "[--parallelism=N, 0-%d] (see source header)\nno arguments "
              "given — running the self-demo (build-index + query round "
              "trip).\n\n", kMaxParallelism);
  return SelfDemo(parallelism);
}
