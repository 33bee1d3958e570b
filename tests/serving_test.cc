// Serving-layer guards: concurrent queries through VerServer must be
// bit-identical to serial Ver::Execute execution, cache hits must return
// the identical result, and deadline / cancellation / backpressure paths
// must fail cleanly with the right status. The 8-thread test doubles as the
// ThreadSanitizer workload for the shared-engine read path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ver.h"
#include "query_fingerprint.h"
#include "server_test_fixture.h"
#include "serving/query_cache.h"
#include "serving/ver_server.h"
#include "workload/noisy_query.h"
#include "workload/open_data_gen.h"

namespace ver {
namespace {

struct ServingFixture {
  GeneratedDataset dataset;
  std::vector<DiscoveryRequest> requests;

  ServingFixture() {
    OpenDataSpec spec;
    spec.num_tables = 40;
    spec.num_queries = 4;
    dataset = GenerateOpenDataLike(spec);
    NoiseLevel levels[] = {NoiseLevel::kZero, NoiseLevel::kMedium,
                           NoiseLevel::kHigh};
    for (size_t i = 0; i < dataset.queries.size(); ++i) {
      Result<ExampleQuery> q = MakeNoisyQuery(
          dataset.repo, dataset.queries[i], levels[i % 3], 3, 7 + i);
      if (q.ok()) requests.push_back(DiscoveryRequest::ForQuery(q.value()));
    }
  }
};

ServingFixture& Fixture() {
  static ServingFixture* fixture = new ServingFixture();
  return *fixture;
}

TEST(ServingTest, ConcurrentMixedQueriesMatchSerialExecution) {
  ServingFixture& f = Fixture();
  ASSERT_GE(f.requests.size(), 2u);

  // Serial ground truth from a plain Ver.
  VerConfig config;
  Ver serial(&f.dataset.repo, config);
  std::vector<std::string> expected;
  for (const DiscoveryRequest& r : f.requests) {
    expected.push_back(Fingerprint(serial.Execute(r).result));
  }

  ServingOptions serving;
  serving.num_workers = 4;
  serving.cache_capacity = 16;
  VerServer server(&f.dataset.repo, config, serving);

  // 8 client threads, each issuing every query twice (same + different
  // queries interleaved across threads, exercising cache hits and misses).
  constexpr int kThreads = 8;
  constexpr int kRounds = 2;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < f.requests.size(); ++i) {
          size_t q = (i + t) % f.requests.size();
          ServedResult served = server.Serve(f.requests[q]);
          if (!served.status.ok() || served.result == nullptr ||
              Fingerprint(*served.result) != expected[q]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);

  ServerStats stats = server.stats();
  int64_t total = static_cast<int64_t>(kThreads) * kRounds *
                  static_cast<int64_t>(f.requests.size());
  EXPECT_EQ(stats.submitted, total);
  EXPECT_EQ(stats.served_ok, total);
  EXPECT_EQ(stats.rejected, 0);
  // Every distinct query computes at least once; with 16 slots for <= 4
  // distinct queries nothing evicts, so all remaining serves can hit.
  EXPECT_GE(stats.cache_misses, static_cast<int64_t>(f.requests.size()));
  EXPECT_GT(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_evictions, 0);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, total);
}

TEST(ServingTest, CacheHitReturnsIdenticalResultAndCountsHit) {
  ServingFixture& f = Fixture();
  VerConfig config;
  ServingOptions serving;
  serving.num_workers = 2;
  serving.cache_capacity = 8;
  VerServer server(&f.dataset.repo, config, serving);

  ServedResult first = server.Serve(f.requests[0]);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);

  ServedResult second = server.Serve(f.requests[0]);
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  // The cache returns the very same immutable object.
  EXPECT_EQ(second.result.get(), first.result.get());

  // A query with re-ordered examples canonicalizes to the same key and
  // must hit with the identical result.
  DiscoveryRequest reordered = f.requests[0];
  for (auto& column : reordered.query.columns) {
    std::reverse(column.begin(), column.end());
  }
  ServedResult third = server.Serve(reordered);
  ASSERT_TRUE(third.status.ok());
  EXPECT_TRUE(third.cache_hit);
  EXPECT_EQ(third.result.get(), first.result.get());

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 2);
  EXPECT_EQ(stats.cache_misses, 1);
}

TEST(ServingTest, DeadlineExceededFailsCleanly) {
  ServingFixture& f = Fixture();
  VerConfig config;
  ServingOptions serving;
  serving.num_workers = 1;
  VerServer server(&f.dataset.repo, config, serving);

  // A deadline of 1ns is over before any worker can pick the query up.
  DiscoveryRequest expiring = f.requests[0];
  expiring.deadline_s = 1e-9;
  ServedResult served = server.Serve(expiring);
  EXPECT_TRUE(served.status.IsDeadlineExceeded()) << served.status.ToString();
  EXPECT_EQ(served.result, nullptr);
  EXPECT_FALSE(served.cache_hit);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.served_ok, 0);
  // Expired queries never touch the cache.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0);

  // The server still serves fresh queries afterwards.
  ServedResult ok = server.Serve(f.requests[0]);
  EXPECT_TRUE(ok.status.ok());
}

TEST(ServingTest, RequestDeadlineAndCancelStopBetweenStages) {
  ServingFixture& f = Fixture();
  VerConfig config;
  Ver system(&f.dataset.repo, config);
  auto names = [](const Status& status, const char* stage) {
    return status.ToString().find(stage) != std::string::npos;
  };

  // Pre-cancelled request: fails before COLUMN-SELECTION.
  std::atomic<bool> cancel{true};
  DiscoveryRequest cancelled = f.requests[0];
  cancelled.cancel = &cancel;
  DiscoveryResponse stopped = system.Execute(cancelled);
  EXPECT_TRUE(stopped.status.IsCancelled()) << stopped.status.ToString();
  EXPECT_TRUE(names(stopped.status, "COLUMN-SELECTION"));
  EXPECT_TRUE(stopped.result.views.empty());

  // Expired absolute deadline: fails before COLUMN-SELECTION.
  DiscoveryRequest expired = f.requests[0];
  expired.deadline = std::chrono::steady_clock::now();
  DiscoveryResponse late = system.Execute(expired);
  EXPECT_TRUE(late.status.IsDeadlineExceeded()) << late.status.ToString();
  EXPECT_TRUE(names(late.status, "COLUMN-SELECTION"));

  // A flag raised while JOIN-GRAPH-SEARCH runs stops the batch pipeline at
  // the next boundary: the stage finishes, MATERIALIZER never starts.
  struct CancelAfterSearch : public QueryObserver {
    std::atomic<bool>* flag = nullptr;
    bool materialized = false;
    void OnStageStarted(PipelineStage stage) override {
      if (stage == PipelineStage::kMaterialization) materialized = true;
    }
    void OnStageFinished(PipelineStage stage, double) override {
      if (stage == PipelineStage::kJoinGraphSearch) flag->store(true);
    }
  };
  std::atomic<bool> raised{false};
  CancelAfterSearch observer;
  observer.flag = &raised;
  DiscoveryRequest mid_run = f.requests[0];
  mid_run.cancel = &raised;
  DiscoveryResponse aborted = system.Execute(mid_run, &observer);
  EXPECT_TRUE(aborted.status.IsCancelled()) << aborted.status.ToString();
  EXPECT_TRUE(names(aborted.status, "MATERIALIZER"));
  EXPECT_FALSE(observer.materialized);

  // A clear flag and a future deadline never fire and change no answer.
  std::atomic<bool> clear{false};
  DiscoveryRequest controlled = f.requests[0];
  controlled.cancel = &clear;
  controlled.deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  DiscoveryResponse plain = system.Execute(controlled);
  ASSERT_TRUE(plain.status.ok()) << plain.status.ToString();
  EXPECT_EQ(Fingerprint(plain.result),
            Fingerprint(system.Execute(f.requests[0]).result));
}

TEST(ServingTest, ServerCancellationIsCooperative) {
  ServingFixture& f = Fixture();
  VerConfig config;
  ServingOptions serving;
  serving.num_workers = 1;
  VerServer server(&f.dataset.repo, config, serving);

  // Keep the single worker busy, then cancel a queued ticket. The cancel
  // races with the worker, so the outcome is OK or Cancelled — never a
  // crash, a hang, or a partial result.
  auto busy = server.Submit(f.requests[0]);
  auto target = server.Submit(f.requests[1 % f.requests.size()]);
  target->Cancel();
  const ServedResult& served = target->Wait();
  if (served.status.ok()) {
    EXPECT_NE(served.result, nullptr);
  } else {
    EXPECT_TRUE(served.status.IsCancelled()) << served.status.ToString();
    EXPECT_EQ(served.result, nullptr);
  }
  EXPECT_TRUE(busy->Wait().status.ok());
}

TEST(ServingTest, SubmitAfterShutdownIsRejected) {
  ServingFixture& f = Fixture();
  VerConfig config;
  ServingOptions serving;
  serving.num_workers = 2;
  VerServer server(&f.dataset.repo, config, serving);

  ServedResult before = server.Serve(f.requests[0]);
  EXPECT_TRUE(before.status.ok());

  server.Shutdown();
  ServedResult after = server.Submit(f.requests[0])->Wait();
  EXPECT_TRUE(after.status.IsUnavailable()) << after.status.ToString();
  EXPECT_EQ(server.stats().rejected, 1);

  server.Shutdown();  // idempotent
}

TEST(ServingTest, CanonicalKeyIsOrderInvariantWithinAttribute) {
  ExampleQuery a = ExampleQuery::FromColumns({{"x", "y"}, {"1", "2"}});
  ExampleQuery b = ExampleQuery::FromColumns({{"y", "x"}, {"2", "1"}});
  EXPECT_EQ(CanonicalQueryKey(a), CanonicalQueryKey(b));

  // Attribute order matters (it is the output column order).
  ExampleQuery swapped = ExampleQuery::FromColumns({{"1", "2"}, {"x", "y"}});
  EXPECT_NE(CanonicalQueryKey(a), CanonicalQueryKey(swapped));

  // Duplicate examples change hit counts, so they change the key.
  ExampleQuery duped = ExampleQuery::FromColumns({{"x", "x", "y"}, {"1", "2"}});
  EXPECT_NE(CanonicalQueryKey(a), CanonicalQueryKey(duped));

  // Hints participate in the key.
  ExampleQuery hinted = a;
  hinted.attribute_hints[0] = "city";
  EXPECT_NE(CanonicalQueryKey(a), CanonicalQueryKey(hinted));

  // Values containing the delimiter bytes stay unambiguous.
  ExampleQuery tricky1 = ExampleQuery::FromColumns({{"ab", "c"}});
  ExampleQuery tricky2 = ExampleQuery::FromColumns({{"a", "bc"}});
  EXPECT_NE(CanonicalQueryKey(tricky1), CanonicalQueryKey(tricky2));
}

TEST(ServingTest, HotSwapServesNewSnapshotToNewSubmissions) {
  ServingFixture& f = Fixture();
  VerConfig config_a;
  VerConfig config_b;
  config_b.run_distillation = false;  // distinguishable results
  auto ver_a = std::make_shared<const Ver>(&f.dataset.repo, config_a);
  auto ver_b = std::make_shared<const Ver>(&f.dataset.repo, config_b);
  std::string fp_a = Fingerprint(ver_a->Execute(f.requests[0]).result);
  std::string fp_b = Fingerprint(ver_b->Execute(f.requests[0]).result);
  ASSERT_NE(fp_a, fp_b);

  ServingOptions serving;
  serving.num_workers = 2;
  serving.cache_capacity = 8;
  VerServer server(ver_a, serving);

  ServedResult first = server.Serve(f.requests[0]);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(Fingerprint(*first.result), fp_a);

  // Pin the old snapshot the way an in-flight query does.
  std::shared_ptr<const Ver> pinned = server.snapshot();

  EXPECT_TRUE(server.SwapSnapshot(ver_b));
  EXPECT_FALSE(server.SwapSnapshot(nullptr));

  // The same query is now answered by the new snapshot; the cached result
  // from the old epoch must not resurface.
  ServedResult second = server.Serve(f.requests[0]);
  ASSERT_TRUE(second.status.ok());
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(Fingerprint(*second.result), fp_b);

  // The pinned old snapshot stays fully queryable — the lifetime guarantee
  // in-flight queries rely on while a swap lands mid-run.
  EXPECT_EQ(Fingerprint(pinned->Execute(f.requests[0]).result), fp_a);
  EXPECT_EQ(server.stats().snapshot_swaps, 1);
}

TEST(ServingTest, QueriesSubmittedBeforeSwapCompleteCleanly) {
  ServingFixture& f = Fixture();
  VerConfig config_a;
  VerConfig config_b;
  config_b.run_distillation = false;
  auto ver_a = std::make_shared<const Ver>(&f.dataset.repo, config_a);
  auto ver_b = std::make_shared<const Ver>(&f.dataset.repo, config_b);
  std::string fp_a = Fingerprint(ver_a->Execute(f.requests[0]).result);
  std::string fp_b = Fingerprint(ver_b->Execute(f.requests[0]).result);

  ServingOptions serving;
  serving.num_workers = 1;  // serializes the backlog across the swap
  serving.cache_capacity = 0;
  VerServer server(ver_a, serving);

  // Queue a burst, swap while it drains. Every ticket must complete OK on
  // whichever snapshot it was dequeued with — old before the swap landed,
  // new after — never on a torn or destroyed one.
  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 4; ++i) tickets.push_back(server.Submit(f.requests[0]));
  ASSERT_TRUE(server.SwapSnapshot(ver_b));
  for (int i = 0; i < 4; ++i) tickets.push_back(server.Submit(f.requests[0]));

  bool saw_new = false;
  for (auto& t : tickets) {
    const ServedResult& served = t->Wait();
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    std::string fp = Fingerprint(*served.result);
    EXPECT_TRUE(fp == fp_a || fp == fp_b);
    if (fp == fp_b) saw_new = true;
    // Once the new snapshot answers, the old one never answers again (the
    // single worker drains in order, and a swap is atomic at dequeue).
    if (saw_new) {
      EXPECT_EQ(fp, fp_b);
    }
  }
  // Tickets submitted after the swap ran on the new snapshot.
  EXPECT_TRUE(saw_new);
}

TEST(ServingTest, HotSwapUnderConcurrentTrafficIsSafeAndConsistent) {
  // ThreadSanitizer workload: clients stream queries while snapshots swap
  // underneath them. Every result must be OK and exactly one of the two
  // snapshots' answers.
  ServingFixture& f = Fixture();
  VerConfig config_a;
  VerConfig config_b;
  config_b.run_distillation = false;
  auto ver_a = std::make_shared<const Ver>(&f.dataset.repo, config_a);
  auto ver_b = std::make_shared<const Ver>(&f.dataset.repo, config_b);
  std::string fp_a = Fingerprint(ver_a->Execute(f.requests[0]).result);
  std::string fp_b = Fingerprint(ver_b->Execute(f.requests[0]).result);

  ServingOptions serving;
  serving.num_workers = 2;
  serving.cache_capacity = 8;
  VerServer server(ver_a, serving);

  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        ServedResult served = server.Serve(f.requests[0]);
        if (!served.status.ok() || served.result == nullptr) {
          bad.fetch_add(1);
          continue;
        }
        std::string fp = Fingerprint(*served.result);
        if (fp != fp_a && fp != fp_b) bad.fetch_add(1);
      }
    });
  }
  for (int s = 0; s < 8; ++s) {
    server.SwapSnapshot(s % 2 == 0 ? ver_b : ver_a);
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(bad.load(), 0);

  // With traffic drained, one more swap then a fresh submission: the new
  // snapshot answers.
  ASSERT_TRUE(server.SwapSnapshot(ver_b));
  ServedResult final_result = server.Serve(f.requests[0]);
  ASSERT_TRUE(final_result.status.ok());
  EXPECT_EQ(Fingerprint(*final_result.result), fp_b);
}

// Observer recording only the terminal event (for admission-path tests
// where no pipeline events can fire).
struct FinishObserver : public QueryObserver {
  std::atomic<int> finished_events{0};
  Status final_status;
  void OnFinished(const Status& status) override {
    final_status = status;
    finished_events.fetch_add(1);
  }
};

TEST(ServingTest, QueueFullRejectsImmediatelyAndNeverLosesTickets) {
  // One worker held mid-dispatch (via the worker gate), queue bound 2:
  // filling the queue and submitting once more must reject synchronously
  // with Unavailable — no deadlock against the held worker, no dropped
  // ticket — and every admitted request must still complete after release.
  TableRepository repo = MakeServingTestRepo();
  WorkerGate gate;
  ServingOptions serving;
  serving.num_workers = 1;
  serving.max_queue_depth = 2;
  serving.cache_capacity = 0;
  serving.hooks.after_dequeue = [&] { gate.Arrive(); };
  VerServer server(&repo, VerConfig(), serving);

  auto held = server.Submit(ServingTestRequest());
  gate.AwaitArrivals(1);  // the worker holds request 1; queue is empty
  auto queued_a = server.Submit(ServingTestRequest());
  auto queued_b = server.Submit(ServingTestAltRequest());

  ServerStats before = server.stats();
  EXPECT_EQ(before.current_queue_depth, 2);

  FinishObserver observer;
  auto rejected = server.Submit(
      ServingTestRequest(), &observer);
  // The rejection resolved on the submitting thread: the ticket is already
  // complete (Poll before Wait proves no blocking was possible) and the
  // observer got its terminal event.
  EXPECT_TRUE(rejected->Poll());
  const ServedResult& shed = rejected->Wait();
  EXPECT_TRUE(shed.status.IsUnavailable()) << shed.status.ToString();
  EXPECT_EQ(observer.finished_events.load(), 1);
  EXPECT_TRUE(observer.final_status.IsUnavailable());

  gate.Open();
  EXPECT_TRUE(held->Wait().status.ok());
  EXPECT_TRUE(queued_a->Wait().status.ok());
  EXPECT_TRUE(queued_b->Wait().status.ok());

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 4);
  EXPECT_EQ(stats.served_ok, 3);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.peak_queue_depth, 2);
  EXPECT_EQ(stats.current_queue_depth, 0);
}

TEST(ServingTest, FifoQueueIgnoresDeadlines) {
  // One worker held on a marker request while four more are queued with
  // deadlines in shuffled order; the execution order (observed via the
  // before_execute hook) must be admission order, whatever the deadlines.
  TableRepository repo = MakeServingTestRepo();
  WorkerGate gate;
  std::mutex order_mu;
  std::vector<int> order;
  ServingOptions serving;
  serving.num_workers = 1;
  serving.cache_capacity = 0;
  serving.hooks.after_dequeue = [&] { gate.Arrive(); };
  serving.hooks.before_execute = [&](const DiscoveryRequest& request) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(request.overrides.expected_views.value_or(-1));
  };
  VerServer server(&repo, VerConfig(), serving);

  // Tag each request through a knob the hook can read back. The deadlines
  // are hours out, so nothing can expire while queued.
  auto tagged = [](int tag, double deadline_s) {
    DiscoveryRequest request = ServingTestRequest();
    request.overrides.expected_views = tag;
    if (deadline_s > 0) request.WithDeadline(deadline_s);
    return request;
  };

  std::vector<std::shared_ptr<QueryTicket>> tickets;
  tickets.push_back(server.Submit(tagged(0, 0)));
  gate.AwaitArrivals(1);
  tickets.push_back(server.Submit(tagged(3, 10800)));
  tickets.push_back(server.Submit(tagged(1, 3600)));
  tickets.push_back(server.Submit(tagged(4, 0)));
  tickets.push_back(server.Submit(tagged(2, 7200)));
  gate.Open();
  for (auto& ticket : tickets) {
    EXPECT_TRUE(ticket->Wait().status.ok());
  }
  EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 4, 2}));
}

TEST(ServingTest, IdenticalConcurrentRequestsEachExecute) {
  // With the cache off, identical concurrent requests all reach the
  // pipeline: every dequeued request runs itself.
  TableRepository repo = MakeServingTestRepo();
  WorkerGate gate;
  std::atomic<int> executions{0};
  ServingOptions serving;
  serving.num_workers = 4;
  serving.cache_capacity = 0;
  serving.hooks.before_execute = [&](const DiscoveryRequest&) {
    executions.fetch_add(1);
    gate.Arrive();
  };
  VerServer server(&repo, VerConfig(), serving);

  std::vector<std::shared_ptr<QueryTicket>> tickets;
  for (int i = 0; i < 4; ++i) {
    tickets.push_back(server.Submit(ServingTestRequest()));
  }
  // All four workers reach execution simultaneously.
  gate.AwaitArrivals(4);
  gate.Open();
  for (auto& ticket : tickets) {
    EXPECT_TRUE(ticket->Wait().status.ok());
  }
  EXPECT_EQ(executions.load(), 4);
  EXPECT_EQ(server.stats().pipeline_executions, 4);
}

TEST(ServingTest, ShutdownWhileSheddingDrainsCleanly) {
  // Shutdown racing a held worker, a full queue, and fresh rejections:
  // every admitted ticket completes OK, every rejected ticket resolves
  // with Unavailable, and Shutdown returns only after the drain.
  TableRepository repo = MakeServingTestRepo();
  WorkerGate gate;
  ServingOptions serving;
  serving.num_workers = 1;
  serving.max_queue_depth = 2;
  serving.cache_capacity = 0;
  serving.hooks.after_dequeue = [&] { gate.Arrive(); };
  VerServer server(&repo, VerConfig(), serving);

  auto held = server.Submit(ServingTestRequest());
  gate.AwaitArrivals(1);
  auto queued_a = server.Submit(ServingTestRequest());
  auto queued_b = server.Submit(ServingTestAltRequest());
  auto shed = server.Submit(ServingTestRequest());  // queue full
  EXPECT_TRUE(shed->Wait().status.IsUnavailable());

  // Shutdown from another thread blocks on the held worker; opening the
  // gate lets the backlog drain, after which Shutdown must return.
  std::thread closer([&] { server.Shutdown(); });
  gate.Open();
  closer.join();

  EXPECT_TRUE(held->Wait().status.ok());
  EXPECT_TRUE(queued_a->Wait().status.ok());
  EXPECT_TRUE(queued_b->Wait().status.ok());

  // Post-shutdown submissions reject cleanly.
  EXPECT_TRUE(
      server.Submit(ServingTestRequest())->Wait().status.IsUnavailable());

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.served_ok, 3);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.current_queue_depth, 0);
}

TEST(ServingTest, StatsReportPerStageLatencyQuantiles) {
  // Every served request contributes to the queue-wait and total
  // histograms; only real pipeline runs feed the pipeline histogram
  // (cache hits do not).
  TableRepository repo = MakeServingTestRepo();
  ServingOptions serving;
  serving.num_workers = 2;
  serving.cache_capacity = 8;
  VerServer server(&repo, VerConfig(), serving);

  constexpr int kServes = 6;
  for (int i = 0; i < kServes; ++i) {
    ASSERT_TRUE(server.Serve(ServingTestRequest()).status.ok());
  }

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.queue_wait.count, kServes);
  EXPECT_EQ(stats.total.count, kServes);
  // One miss computed the result; the five hits replayed it.
  EXPECT_EQ(stats.pipeline.count, stats.pipeline_executions);
  EXPECT_EQ(stats.pipeline.count, 1);
  EXPECT_GT(stats.pipeline.p50_s, 0);
  EXPECT_GE(stats.pipeline.p999_s, stats.pipeline.p50_s);
  EXPECT_GE(stats.pipeline.max_s, stats.pipeline.p999_s * 0.97);
  EXPECT_GE(stats.total.p50_s, 0);
  EXPECT_GE(stats.total.p999_s, stats.total.p50_s);
  EXPECT_GE(stats.total.max_s, stats.total.p50_s);
  EXPECT_GE(stats.queue_wait.max_s, 0);
}

TEST(ServingTest, QueryCacheEvictsLeastRecentlyUsed) {
  QueryCache cache(2);
  auto r1 = std::make_shared<const QueryResult>();
  auto r2 = std::make_shared<const QueryResult>();
  auto r3 = std::make_shared<const QueryResult>();

  cache.Insert("a", r1);
  cache.Insert("b", r2);
  EXPECT_EQ(cache.Lookup("a").get(), r1.get());  // bumps "a"
  cache.Insert("c", r3);                         // evicts "b"
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_EQ(cache.Lookup("a").get(), r1.get());
  EXPECT_EQ(cache.Lookup("c").get(), r3.get());
  EXPECT_EQ(cache.size(), 2u);

  QueryCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.hits, 3);
  EXPECT_EQ(counters.misses, 1);
  EXPECT_EQ(counters.evictions, 1);

  // Capacity 0 disables caching entirely.
  QueryCache disabled(0);
  disabled.Insert("a", r1);
  EXPECT_EQ(disabled.Lookup("a"), nullptr);
  EXPECT_EQ(disabled.size(), 0u);
}

// Hands out results whose deleter checks, from a second thread, whether
// the cache's lock is free while the result is destroyed: the probe calls
// size() and waits up to 5 s for it to return. A deleter running under the
// lock cannot see it return, so its probe thread only finishes once the
// cache call that dropped the result has unlocked; Join() after that call.
class CacheLockProbe {
 public:
  explicit CacheLockProbe(const QueryCache* cache) : cache_(cache) {}

  std::shared_ptr<const QueryResult> NewResult() {
    return std::shared_ptr<const QueryResult>(
        new QueryResult(), [this](const QueryResult* result) {
          auto returned = std::make_shared<std::atomic<bool>>(false);
          threads_.emplace_back([cache = cache_, returned] {
            cache->size();
            *returned = true;
          });
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(5);
          while (!*returned && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          ++(*returned ? lock_free_ : lock_held_);
          delete result;
        });
  }

  void Join() {
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }
  int lock_free() const { return lock_free_; }
  int lock_held() const { return lock_held_; }

 private:
  const QueryCache* cache_;
  std::vector<std::thread> threads_;
  int lock_free_ = 0;
  int lock_held_ = 0;
};

TEST(ServingTest, QueryCacheDestroysDroppedResultsOutsideItsLock) {
  QueryCache cache(1);
  CacheLockProbe probe(&cache);
  cache.Insert("a", probe.NewResult());
  cache.Insert("a", probe.NewResult());  // overwrites the first result
  probe.Join();
  cache.Insert("b", probe.NewResult());  // evicts the second
  probe.Join();
  cache.Clear();  // drops the third
  probe.Join();
  EXPECT_EQ(probe.lock_free(), 3);
  EXPECT_EQ(probe.lock_held(), 0);
  EXPECT_EQ(cache.counters().evictions, 1);
}

}  // namespace
}  // namespace ver
