// serving_demo: the concurrent serving layer in ~100 lines.
//
// Generates an open-data-like portal, starts a VerServer with 4 workers and
// an LRU result cache, then fires the same small query mix from 4 client
// threads — showing submission tickets, cache hits, a deadline miss, and
// the server statistics. A second act demos the request/response API: a
// DiscoveryRequest with per-request knob overrides (its result never
// aliases the default-knob cache entries), and a streaming StopAfter(1)
// request whose first view arrives through a QueryObserver long before the
// full pipeline would have finished. Runs argument-free (it doubles as a
// CTest smoke test).

#include <cstdio>
#include <thread>
#include <vector>

#include "api/discovery_request.h"
#include "api/query_observer.h"
#include "serving/ver_server.h"
#include "workload/noisy_query.h"
#include "workload/open_data_gen.h"

using namespace ver;  // NOLINT — example brevity

namespace {

// Prints every view the moment a worker thread classifies it as surviving.
class PrintingObserver : public QueryObserver {
 public:
  void OnViewDelivered(const View& view, int delivery_index,
                       double elapsed_s) override {
    std::printf("  streamed view #%d after %.1fms (%lld rows)\n",
                delivery_index + 1, elapsed_s * 1000,
                static_cast<long long>(view.num_rows()));
  }
};

}  // namespace

int main() {
  OpenDataSpec spec;
  spec.num_tables = 50;
  spec.num_queries = 3;
  GeneratedDataset dataset = GenerateOpenDataLike(spec);
  std::vector<ExampleQuery> queries;
  for (size_t i = 0; i < dataset.queries.size(); ++i) {
    Result<ExampleQuery> q = MakeNoisyQuery(dataset.repo, dataset.queries[i],
                                            NoiseLevel::kZero, 3, 7 + i);
    if (q.ok()) queries.push_back(std::move(q).value());
  }
  if (queries.empty()) {
    std::fprintf(stderr, "demo setup failed\n");
    return 1;
  }

  VerConfig config;
  config.discovery.parallelism = 0;  // index offline on every core
  ServingOptions serving;
  serving.num_workers = 4;
  serving.cache_capacity = 32;
  VerServer server(&dataset.repo, config, serving);
  std::printf("serving %d tables with %d workers, cache capacity %zu\n",
              dataset.repo.num_tables(), serving.num_workers,
              serving.cache_capacity);

  // 4 client threads, each serving the whole mix twice; the second pass is
  // all cache hits.
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&server, &queries, t] {
      for (int round = 0; round < 2; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          ServedResult served = server.Serve(
              DiscoveryRequest::ForQuery(queries[(i + t) % queries.size()]));
          if (served.status.ok()) {
            std::printf(
                "client %d: %zu views, %zu after 4C%s (wait %.1fms, run "
                "%.1fms)\n",
                t, served.result->views.size(),
                served.result->distillation.surviving.size(),
                served.cache_hit ? " [cache hit]" : "",
                served.queue_wait_s * 1000, served.run_s * 1000);
          } else {
            std::printf("client %d: %s\n", t, served.status.ToString().c_str());
          }
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();

  // Per-request knobs: the same query with theta=2 and distillation off is
  // a different request — it can never alias the cached default results.
  DiscoveryRequest tweaked = DiscoveryRequest::ForQuery(queries[0]);
  tweaked.overrides.theta = 2;
  tweaked.overrides.run_distillation = false;
  ServedResult custom = server.Serve(std::move(tweaked));
  if (custom.status.ok()) {
    std::printf("\ntheta=2, no-distill request: %zu views%s\n",
                custom.result->views.size(),
                custom.cache_hit ? " [cache hit — BUG]" : " [cache miss]");
  }

  // Streaming early termination: StopAfter(1) delivers the first surviving
  // view through the observer and stops materializing the rest.
  PrintingObserver observer;
  std::printf("streaming StopAfter(1) request:\n");
  auto ticket = server.Submit(
      DiscoveryRequest::ForQuery(queries[0]).StopAfter(1), &observer);
  const ServedResult& streamed = ticket->Wait();
  if (streamed.status.ok()) {
    std::printf("  -> %d views delivered, early_terminated=%s, run %.1fms\n",
                streamed.views_delivered,
                streamed.early_terminated ? "true" : "false",
                streamed.run_s * 1000);
  }

  // A 1-nanosecond deadline always expires while queued: a clean failure.
  ServedResult late =
      server.Serve(DiscoveryRequest::ForQuery(queries[0]).WithDeadline(1e-9));
  std::printf("1ns deadline: %s\n", late.status.ToString().c_str());

  ServerStats stats = server.stats();
  std::printf(
      "\nstats: submitted=%lld ok=%lld deadline_exceeded=%lld rejected=%lld\n"
      "cache: hits=%lld misses=%lld evictions=%lld\n"
      "queue: peak depth=%lld; overrides=%lld streaming=%lld\n",
      static_cast<long long>(stats.submitted),
      static_cast<long long>(stats.served_ok),
      static_cast<long long>(stats.deadline_exceeded),
      static_cast<long long>(stats.rejected),
      static_cast<long long>(stats.cache_hits),
      static_cast<long long>(stats.cache_misses),
      static_cast<long long>(stats.cache_evictions),
      static_cast<long long>(stats.peak_queue_depth),
      static_cast<long long>(stats.requests_with_overrides),
      static_cast<long long>(stats.requests_streaming));
  return stats.served_ok > 0 ? 0 : 1;
}
