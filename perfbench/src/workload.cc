// perfbench_workload: runs one workload of the Ver serving benchmark.
//
//   perfbench_workload prepare --workload portal_paged --seed N --dir D
//   perfbench_workload run --workload W --seed N --seconds S --trace 0|1 --dir D
//
// `prepare` (paged workload only) generates the lake in its own process,
// builds and saves the snapshot, and writes the request pool with its serial
// references, so the serving process never holds the lake. `run` serves the
// workload through VerServer in a closed loop and prints progress lines, a
// "host:" line, then "result: {json}" as its last line. perfbench/run.py
// builds this binary and turns that line into the benchmark's output.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "harness.h"
#include "util/simd.h"
#include "workload/noisy_query.h"
#include "workload/open_data_gen.h"
#include "workload/wdc_gen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Closed loop: two clients held by one generator thread, two server workers;
// with the checker that is at most three busy threads on a 4-core host.
constexpr int kClients = 2;
constexpr int kWorkers = 2;
// Distinct requests per workload, served in one seeded cyclic order. Larger
// than the 128-entry LRU result cache, so no request is ever a cache hit.
constexpr size_t kPoolSize = 150;
constexpr int kExamplesPerColumn = 3;
// Timed passes per run at least, so the p98 latency has >= 10 samples
// beyond it (4 x 150 = 600 requests).
constexpr size_t kMinPasses = 4;
constexpr int kReferenceThreads = 4;

enum class Lake { kPortal, kWdc };

struct WorkloadSpec {
  const char* name;
  Lake lake;
  bool paged;
  bool first_view;  // StopAfter(1) streaming requests
};

constexpr WorkloadSpec kWorkloads[] = {
    {"portal_batch", Lake::kPortal, false, false},
    {"wdc_first_view", Lake::kWdc, false, true},
    {"portal_paged", Lake::kPortal, true, false},
};

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// Times `step` repeatedly and returns the median: at least 9 times and for
// at least half a second, so ms-scale set-ups are still a stable median.
// `reset` runs untimed before each step (tearing down the previous result).
template <typename Reset, typename Step>
double MedianSeconds(Reset reset, Step step) {
  std::vector<double> times;
  double total = 0;
  while (times.size() < 9 || (total < 0.5 && times.size() < 199)) {
    reset();
    Clock::time_point t0 = Clock::now();
    step();
    times.push_back(Seconds(t0, Clock::now()));
    total += times.back();
  }
  return Median(times);
}

// The lakes: the bench defaults of bench/bench_common.h (scale 1), the
// portal at three times its default table count, each generated from its
// generator's default seed. The lake is deliberately the same for every
// workload seed: two portal lakes of the same size differ by about a third in
// throughput, which no run of affordable length averages away, while the
// queries drawn from one lake (and their order) vary with the seed.
ver::GeneratedDataset GenerateLake(Lake lake) {
  switch (lake) {
    case Lake::kPortal: {
      ver::OpenDataSpec spec;
      spec.num_tables = 160 * 3;
      spec.portion = 1.0;
      spec.num_queries = 50;  // x 3 noise levels = kPoolSize
      return ver::GenerateOpenDataLike(spec);
    }
    case Lake::kWdc: {
      ver::WdcSpec spec;
      spec.versions_per_topic = 8;
      spec.num_filler_tables = 40;
      return ver::GenerateWdcLike(spec);
    }
  }
  Die("unknown lake");
}

// kPoolSize distinct noisy queries, round-robin over (ground-truth query,
// noise level) so every pair is equally represented, then shuffled into
// the seeded cyclic serving order.
std::vector<PoolEntry> BuildPool(const ver::GeneratedDataset& dataset,
                                 uint64_t seed) {
  static const ver::NoiseLevel kLevels[] = {
      ver::NoiseLevel::kZero, ver::NoiseLevel::kMedium, ver::NoiseLevel::kHigh};
  std::vector<PoolEntry> pool;
  std::unordered_set<std::string> keys;
  const size_t num_gt = dataset.queries.size();
  uint64_t draw = 0;
  for (int round = 0; round < 64 && pool.size() < kPoolSize; ++round) {
    for (size_t gt = 0; gt < num_gt && pool.size() < kPoolSize; ++gt) {
      for (ver::NoiseLevel level : kLevels) {
        if (pool.size() >= kPoolSize) break;
        ver::Result<ver::ExampleQuery> query = ver::MakeNoisyQuery(
            dataset.repo, dataset.queries[gt], level, kExamplesPerColumn,
            MixSeed(seed, 0x1000 + draw++));
        if (!query.ok()) continue;
        if (!keys.insert(ver::CanonicalQueryKey(query.value())).second) {
          continue;
        }
        PoolEntry entry;
        entry.gt = static_cast<int>(gt);
        entry.query = std::move(query).value();
        pool.push_back(std::move(entry));
      }
    }
  }
  if (pool.size() < kPoolSize) {
    Die("could not draw " + std::to_string(kPoolSize) +
        " distinct queries (got " + std::to_string(pool.size()) + ")");
  }
  std::mt19937_64 rng(MixSeed(seed, 3));
  std::shuffle(pool.begin(), pool.end(), rng);
  return pool;
}

// Serial Ver::Execute reference for every pool entry; independent entries
// run on a few threads to shorten the untimed preparation.
void ComputeReferences(const ver::Ver& ver, const ver::TableRepository& repo,
                       const std::vector<ver::GroundTruthQuery>& gts,
                       bool first_view, std::vector<PoolEntry>* pool) {
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReferenceThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next++; i < pool->size(); i = next++) {
        if (!ComputeReference(ver, repo, gts, first_view, &(*pool)[i]).ok()) {
          failed = true;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (failed) Die("a reference Ver::Execute failed");
}

int64_t FileBytes(const std::string& path) {
  struct stat st;
  if (stat(path.c_str(), &st) != 0) return -1;
  return static_cast<int64_t>(st.st_size);
}

// ------------------------------------------------------------ prepare

// key=value lines handed from `prepare` to `run`.
using Meta = std::map<std::string, double>;

void WriteMeta(const std::string& path, const Meta& meta) {
  std::ofstream f(path, std::ios::trunc);
  for (const auto& [key, value] : meta) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    f << key << "=" << buf << "\n";
  }
  if (!f) Die("cannot write " + path);
}

Meta ReadMeta(const std::string& path) {
  std::ifstream f(path);
  if (!f) Die("cannot read " + path + " (run prepare first)");
  Meta meta;
  std::string line;
  while (std::getline(f, line)) {
    size_t eq = line.find('=');
    if (eq == std::string::npos) Die("malformed line in " + path);
    meta[line.substr(0, eq)] = std::strtod(line.c_str() + eq + 1, nullptr);
  }
  return meta;
}

int Prepare(const WorkloadSpec& spec, uint64_t seed, const std::string& dir) {
  ver::GeneratedDataset dataset = GenerateLake(spec.lake);
  std::vector<PoolEntry> pool = BuildPool(dataset, seed);
  ver::VerConfig config;
  std::unique_ptr<ver::DiscoveryEngine> engine;
  Meta meta;
  meta["build_s"] = MedianSeconds([&] { engine.reset(); }, [&] {
    engine = ver::DiscoveryEngine::Build(dataset.repo, config.discovery);
  });
  const std::string snapshot = dir + "/lake.versnap";
  meta["save_s"] = MedianSeconds([] {}, [&] {
    ver::Status st = engine->Save(snapshot);
    if (!st.ok()) Die("Save failed: " + st.ToString());
  });
  meta["joinable_pairs"] =
      static_cast<double>(engine->num_joinable_column_pairs());
  meta["snapshot_bytes"] = static_cast<double>(FileBytes(snapshot));
  meta["tables"] = dataset.repo.num_tables();
  ver::Ver reference(&dataset.repo, config, std::move(engine));
  ComputeReferences(reference, dataset.repo, dataset.queries, spec.first_view,
                    &pool);
  if (!WritePool(dir + "/pool.bin", pool)) Die("cannot write pool");
  WriteMeta(dir + "/prep.txt", meta);
  std::printf("prepared %s: %d tables, snapshot %.0f bytes\n", spec.name,
              dataset.repo.num_tables(), meta["snapshot_bytes"]);
  return 0;
}

// ---------------------------------------------------------------- run

struct PassStats {
  bool traced = false;
  int64_t requests = 0;
  double elapsed_s = 0;
  std::vector<double> latency_ms;
};

// One closed-loop pass over the whole pool in its cyclic order: kClients
// clients, each submitting its next request as soon as Wait returns the
// previous one. Answers go to the checker; nothing else runs in the loop.
PassStats RunPass(ver::VerServer* server,
                  const std::vector<ver::DiscoveryRequest>& requests,
                  bool traced, Checker* checker, uint64_t* next_request_id) {
  struct Slot {
    std::shared_ptr<ver::QueryTicket> ticket;
    size_t entry = 0;
    Clock::time_point submitted;
  };
  Completion completion;
  std::vector<std::unique_ptr<ClientObserver>> observers;
  std::vector<Slot> slots(kClients);
  for (int s = 0; s < kClients; ++s) {
    observers.push_back(std::make_unique<ClientObserver>(&completion, s));
  }
  PassStats stats;
  stats.traced = traced;
  size_t next = 0;
  int inflight = 0;
  auto submit = [&](int s) {
    Slot& slot = slots[static_cast<size_t>(s)];
    slot.entry = next++;
    observers[static_cast<size_t>(s)]->Arm(traced);
    slot.submitted = Clock::now();
    slot.ticket = server->Submit(requests[slot.entry],
                                 observers[static_cast<size_t>(s)].get());
    ++inflight;
  };
  Clock::time_point start = Clock::now();
  Clock::time_point last = start;
  for (int s = 0; s < kClients && next < requests.size(); ++s) submit(s);
  while (inflight > 0) {
    uint32_t mask = completion.WaitAny();
    for (int s = 0; s < kClients; ++s) {
      if ((mask & (1u << s)) == 0) continue;
      Slot& slot = slots[static_cast<size_t>(s)];
      Completed done;
      done.served = slot.ticket->Wait();
      done.returned = Clock::now();
      done.entry = slot.entry;
      done.traced = traced;
      done.request_id = (*next_request_id)++;
      done.submitted = slot.submitted;
      if (traced) done.events = observers[static_cast<size_t>(s)]->events();
      stats.latency_ms.push_back(Seconds(done.submitted, done.returned) * 1e3);
      last = done.returned;
      checker->Enqueue(std::move(done));
      slot.ticket.reset();
      --inflight;
      if (next < requests.size()) submit(s);
    }
  }
  stats.requests = static_cast<int64_t>(requests.size());
  stats.elapsed_s = Seconds(start, last);
  return stats;
}

// Everything a run keeps alive while serving. Destruction order matters:
// the server before the Ver it serves, the Ver before its repository.
struct Served {
  ver::GeneratedDataset dataset;                 // resident workloads
  std::unique_ptr<ver::TableRepository> paged_repo;  // paged workload
  std::shared_ptr<const ver::Ver> ver;
  std::unique_ptr<ver::VerServer> server;
};

std::string Json(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + Json(value) +
             ", \"unit\": \"" + unit + "\"}";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

void PrintTally(const char* phase, const Tally& t) {
  std::printf(
      "%s requests: sent=%lld succeeded=%lld failed=%lld (non-OK status=%lld, "
      "answer mismatch=%lld)\n",
      phase, static_cast<long long>(t.sent),
      static_cast<long long>(t.succeeded), static_cast<long long>(t.failed()),
      static_cast<long long>(t.bad_status),
      static_cast<long long>(t.mismatched));
}

void PrintHost() {
  std::string compiler;
#if defined(__clang__)
  compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  compiler = "gcc " __VERSION__;
#else
  compiler = "unknown";
#endif
  std::printf(
      "host: {\"cores\": %u, \"simd_detected\": \"%s\", \"simd_active\": "
      "\"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
      std::thread::hardware_concurrency(),
      ver::simd::LevelName(ver::simd::DetectedLevel()),
      ver::simd::LevelName(ver::simd::ActiveLevel()), compiler.c_str(),
      PERFBENCH_BUILD_TYPE);
}

int Run(const WorkloadSpec& spec, uint64_t seed, double seconds, bool trace,
        const std::string& dir) {
  const Clock::time_point origin = Clock::now();
  ver::VerConfig config;
  ver::ServingOptions options;  // defaults, except the worker count
  options.num_workers = kWorkers;
  Served s;
  std::vector<PoolEntry> pool;
  Meta meta;
  double setup_s = 0;
  uint64_t budget = 0;

  if (!spec.paged) {
    s.dataset = GenerateLake(spec.lake);
    pool = BuildPool(s.dataset, seed);
    {
      ver::Ver reference(&s.dataset.repo, config);
      ComputeReferences(reference, s.dataset.repo, s.dataset.queries,
                        spec.first_view, &pool);
    }
    meta["tables"] = s.dataset.repo.num_tables();
    if (trace) {
      std::unique_ptr<ver::DiscoveryEngine> engine;
      meta["build_s"] = MedianSeconds([&] { engine.reset(); }, [&] {
        engine = ver::DiscoveryEngine::Build(s.dataset.repo, config.discovery);
      });
      meta["joinable_pairs"] =
          static_cast<double>(engine->num_joinable_column_pairs());
    }
    // Inputs ready; set-up ends when the server accepts requests.
    setup_s = MedianSeconds([&] { s.server.reset(); }, [&] {
      s.server =
          std::make_unique<ver::VerServer>(&s.dataset.repo, config, options);
    });
  } else {
    if (!ReadPool(dir + "/pool.bin", &pool)) Die("cannot read pool");
    meta = ReadMeta(dir + "/prep.txt");
    const std::string snapshot = dir + "/lake.versnap";
    budget = static_cast<uint64_t>(meta["snapshot_bytes"] / 4);
    ver::PagingOptions paging;
    paging.enabled = true;
    paging.memory_budget_bytes = budget;
    std::unique_ptr<ver::DiscoveryEngine> engine;
    auto reset = [&] {
      s.server.reset();
      s.ver.reset();
      engine.reset();
      s.paged_repo.reset();
    };
    auto load = [&] {
      ver::Result<ver::TableRepository> repo =
          ver::DiscoveryEngine::LoadRepository(snapshot, paging);
      if (!repo.ok()) Die("LoadRepository: " + repo.status().ToString());
      s.paged_repo =
          std::make_unique<ver::TableRepository>(std::move(repo).value());
      ver::Result<std::unique_ptr<ver::DiscoveryEngine>> loaded =
          ver::DiscoveryEngine::Load(*s.paged_repo, snapshot, paging);
      if (!loaded.ok()) Die("Load: " + loaded.status().ToString());
      engine = std::move(loaded).value();
    };
    if (trace) meta["paged_load_s"] = MedianSeconds(reset, load);
    setup_s = MedianSeconds(reset, [&] {
      load();
      s.ver = std::make_shared<const ver::Ver>(s.paged_repo.get(), config,
                                               std::move(engine));
      s.server = std::make_unique<ver::VerServer>(s.ver, options);
    });
    if (!s.server->snapshot()->engine().paged()) Die("snapshot not paged");
  }

  std::vector<ver::DiscoveryRequest> requests;
  for (const PoolEntry& e : pool) {
    requests.push_back(MakeRequest(e, spec.first_view));
  }
  auto pool_stats = [&]() {
    const auto& pager = s.server->snapshot()->engine().pager();
    return pager != nullptr ? pager->pool_stats() : ver::BufferPoolStats();
  };

  Checker checker(&pool, spec.first_view, origin);
  uint64_t request_id = 0;
  RunPass(s.server.get(), requests, false, &checker, &request_id);  // warm-up
  checker.Drain();
  Tally warmup = checker.tally();
  checker.ResetTally();

  // Timed phase: whole passes (a fixed request count each, the same mix
  // every pass) until `seconds` have elapsed, and at least kMinPasses.
  // Traced runs alternate untraced and traced passes so both see the same
  // host drift.
  ver::BufferPoolStats pager_before = pool_stats();
  std::vector<PassStats> passes;
  Clock::time_point phase_start = Clock::now();
  do {
    bool traced = trace && passes.size() % 2 == 1;
    passes.push_back(RunPass(s.server.get(), requests, traced, &checker,
                             &request_id));
  } while (Seconds(phase_start, Clock::now()) < seconds ||
           passes.size() < kMinPasses);
  ver::BufferPoolStats pager_after = pool_stats();
  checker.Drain();
  const Tally& timed = checker.tally();

  std::vector<double> untraced_qps, latencies;
  double traced_requests = 0, traced_s = 0, untraced_requests = 0,
         untraced_s = 0;
  for (const PassStats& p : passes) {
    if (p.traced) {
      traced_requests += static_cast<double>(p.requests);
      traced_s += p.elapsed_s;
      continue;
    }
    untraced_qps.push_back(static_cast<double>(p.requests) / p.elapsed_s);
    untraced_requests += static_cast<double>(p.requests);
    untraced_s += p.elapsed_s;
    latencies.insert(latencies.end(), p.latency_ms.begin(),
                     p.latency_ms.end());
  }

  PrintHost();
  std::printf("workload %s seed %llu: %d tables, pool %zu distinct requests, "
              "%d clients (closed loop), %d workers%s\n",
              spec.name, static_cast<unsigned long long>(seed),
              static_cast<int>(meta["tables"]), pool.size(), kClients,
              kWorkers, spec.first_view ? ", StopAfter(1)" : ", batch");
  if (spec.paged) {
    std::printf("paged: snapshot %.0f bytes, budget %llu bytes\n",
                meta["snapshot_bytes"], static_cast<unsigned long long>(budget));
  }
  PrintTally("warm-up", warmup);
  PrintTally("timed", timed);
  const bool correct = warmup.failed() == 0 && timed.failed() == 0;
  std::printf("timed passes: %zu (%zu untraced), %.0f untraced requests in "
              "%.2f s\n",
              passes.size(), untraced_qps.size(), untraced_requests,
              untraced_s);
  std::printf("untraced pass throughput (1/s):");
  for (double q : untraced_qps) std::printf(" %.2f", q);
  std::printf("\n");
  std::printf("latency samples: %zu (p98 has %zu beyond it)\n",
              latencies.size(), latencies.size() / 50);
  std::printf("setup: median of >= 9 set-ups (>= 0.5 s in all), each from "
              "inputs ready to server accepting\n");

  MetricsJson metrics;
  if (!trace) {
    metrics.Add("throughput_qps", Median(untraced_qps), "1/s");
    metrics.Add("latency_p50_ms", Quantile(latencies, 0.50), "ms");
    metrics.Add("latency_p98_ms", Quantile(latencies, 0.98), "ms");
    metrics.Add("setup_s", setup_s, "s");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MiB");
    metrics.Add("gt_hit_ratio",
                timed.sent > 0 ? static_cast<double>(timed.gt_hits) /
                                     static_cast<double>(timed.sent)
                               : 0,
                "ratio");
  } else {
    const LayerTotals& L = checker.layers();
    const double n = L.requests > 0 ? static_cast<double>(L.requests) : 1;
    const double timed_requests = untraced_requests + traced_requests;
    auto per_request = [n](double v) { return v / n; };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
    const double misses =
        static_cast<double>(pager_after.misses - pager_before.misses);
    const double hits = static_cast<double>(pager_after.hits - pager_before.hits);
    const double qps_u = ratio(untraced_requests, untraced_s);
    const double qps_t = ratio(traced_requests, traced_s);
    metrics.Add("serving.queue_wait_p50_ms",
                Quantile(L.queue_samples_ms, 0.50), "ms");
    metrics.Add("serving.queue_wait_p95_ms",
                Quantile(L.queue_samples_ms, 0.95), "ms");
    metrics.Add("serving.overhead_ms", per_request(L.overhead_ms), "ms");
    metrics.Add("serving.cache_hit_ratio",
                per_request(static_cast<double>(L.cache_hits)), "ratio");
    metrics.Add("core.column_selection.busy_ms",
                per_request(L.column_selection_ms), "ms");
    metrics.Add("core.column_selection.candidate_columns",
                per_request(static_cast<double>(L.candidate_columns)), "count");
    metrics.Add("core.join_graph_search.busy_ms",
                per_request(L.join_graph_search_ms), "ms");
    metrics.Add("core.join_graph_search.join_graphs",
                per_request(static_cast<double>(L.join_graphs)), "count");
    metrics.Add("core.join_graph_search.candidates",
                per_request(static_cast<double>(L.candidates)), "count");
    metrics.Add("engine.materializer.busy_ms",
                per_request(L.materializer_self_ms), "ms");
    metrics.Add("engine.materializer.views",
                per_request(static_cast<double>(L.views)), "count");
    metrics.Add("engine.materializer.output_rows",
                per_request(static_cast<double>(L.output_rows)), "count");
    metrics.Add("engine.materializer.kept_ratio",
                ratio(static_cast<double>(L.views),
                      static_cast<double>(L.candidates_attempted)),
                "ratio");
    metrics.Add("engine.materializer.failures",
                per_request(static_cast<double>(L.failures)), "count");
    metrics.Add("core.distillation.busy_ms", per_request(L.distillation_ms),
                "ms");
    metrics.Add("core.distillation.survival_ratio",
                ratio(static_cast<double>(L.surviving),
                      static_cast<double>(L.views)),
                "ratio");
    metrics.Add("baselines.fast_topk.busy_ms", per_request(L.ranking_ms), "ms");
    metrics.Add("discovery.build_s", meta["build_s"], "s");
    metrics.Add("discovery.joinable_pairs", meta["joinable_pairs"], "count");
    metrics.Add("discovery.save_s", meta["save_s"], "s");
    metrics.Add("discovery.snapshot_mb", meta["snapshot_bytes"] / (1 << 20),
                "MiB");
    metrics.Add("discovery.paged_load_s", meta["paged_load_s"], "s");
    metrics.Add("pager.misses_per_request", ratio(misses, timed_requests),
                "count");
    metrics.Add("pager.evictions_per_request",
                ratio(static_cast<double>(pager_after.evictions -
                                          pager_before.evictions),
                      timed_requests),
                "count");
    metrics.Add("pager.hit_ratio", ratio(hits, hits + misses), "ratio");
    metrics.Add("pager.load_waits",
                ratio(static_cast<double>(pager_after.load_waits -
                                          pager_before.load_waits),
                      timed_requests),
                "count");
    metrics.Add("pager.peak_resident_mb",
                static_cast<double>(pager_after.peak_resident_bytes) /
                    (1 << 20),
                "MiB");
    metrics.Add("trace.overhead_pct", ratio(qps_u - qps_t, qps_u) * 100, "%");
    metrics.Add("trace.uncovered_pct",
                ratio(L.overhead_ms, L.request_ms) * 100, "%");

    const std::string span_path = dir + "/spans.jsonl";
    if (!WriteSpans(span_path, checker.spans())) Die("cannot write spans");
    double busy = L.column_selection_ms + L.join_graph_search_ms +
                  L.materializer_self_ms + L.vd_io_ms + L.distillation_ms +
                  L.ranking_ms;
    std::printf("traced: %lld requests, %zu spans\n",
                static_cast<long long>(L.requests), checker.spans().size());
    std::printf("%-26s %12s %8s\n", "layer (self time)", "ms/request",
                "share");
    auto row = [&](const char* layer, double total_ms) {
      std::printf("%-26s %12.3f %7.1f%%\n", layer, per_request(total_ms),
                  ratio(total_ms, busy) * 100);
    };
    row("core.column_selection", L.column_selection_ms);
    row("core.join_graph_search", L.join_graph_search_ms);
    row("engine.materializer", L.materializer_self_ms);
    row("engine.vd_io", L.vd_io_ms);
    row("core.distillation", L.distillation_ms);
    row("baselines.fast_topk", L.ranking_ms);
    std::printf("share of request latency no span covers: %.2f%%; queue "
                "%.3f ms/request; tracing overhead %.2f%% of throughput\n",
                ratio(L.overhead_ms, L.request_ms) * 100,
                per_request(L.queue_ms), ratio(qps_u - qps_t, qps_u) * 100);
  }
  std::printf("result: {\"correct\": %s, \"attempted\": %lld, \"failed\": "
              "%lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(timed.sent),
              static_cast<long long>(timed.failed()), metrics.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Die;
  if (argc < 2) Die("usage: perfbench_workload prepare|run --workload W ...");
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) Die("bad argument " +
                                                 std::string(argv[i]));
    args[argv[i] + 2] = argv[i + 1];
  }
  auto need = [&](const char* key) -> const std::string& {
    auto it = args.find(key);
    if (it == args.end()) Die(std::string("missing --") + key);
    return it->second;
  };
  const perfbench::WorkloadSpec* spec = nullptr;
  for (const auto& w : perfbench::kWorkloads) {
    if (need("workload") == w.name) spec = &w;
  }
  if (spec == nullptr) Die("unknown workload " + need("workload"));
  const uint64_t seed = std::strtoull(need("seed").c_str(), nullptr, 10);
  const std::string& dir = need("dir");
  if (mode == "prepare") return perfbench::Prepare(*spec, seed, dir);
  if (mode == "run") {
    double seconds = std::strtod(need("seconds").c_str(), nullptr);
    bool trace = need("trace") == "1";
    return perfbench::Run(*spec, seed, seconds, trace, dir);
  }
  Die("unknown mode " + mode);
}
