// Request/response API guards: per-request overrides must merge exactly
// like a reconfigured system, request canonicalization must never alias
// two requests differing in any knob,
// StopAfter early termination must return a prefix of the full ranked view
// sequence, validation must reject malformed requests before any stage
// runs, and streamed events must arrive in pipeline order — including
// through VerServer worker threads (this suite doubles as a TSan workload
// for streaming observers).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "api/query_observer.h"
#include "baselines/fast_topk.h"
#include "core/ver.h"
#include "query_fingerprint.h"
#include "serving/ver_server.h"
#include "table/csv.h"

namespace ver {
namespace {

TableRepository MakeRepo() {
  TableRepository repo;
  auto add = [&repo](const std::string& name, const std::string& csv) {
    Result<Table> t = ReadCsvString(csv, name);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(repo.AddTable(std::move(t).value()).ok());
  };
  add("cities",
      "city,state\nBoston,Massachusetts\nChicago,Illinois\nAustin,Texas\n"
      "Denver,Colorado\n");
  add("mayors",
      "city,mayor\nBoston,Wu\nChicago,Johnson\nAustin,Watson\nDenver,"
      "Johnston\n");
  add("mayors_old", "city,mayor\nBoston,Walsh\nChicago,Lightfoot\n");
  add("mayors_2019", "city,mayor\nBoston,Walsh\nChicago,Emanuel\nAustin,"
      "Adler\n");
  return repo;
}

ExampleQuery CityMayorQuery() {
  return ExampleQuery::FromColumns({{"Boston", "Chicago"}, {"Wu", "Walsh"}});
}

// A compact identity of one view (provenance + cell-exact contents).
std::string ViewKey(const View& v) {
  return v.graph.Signature() + "#" + v.table.ToString(v.table.num_rows());
}

// Observer recording every event for order/consistency assertions.
struct RecordingObserver : public QueryObserver {
  std::vector<PipelineStage> started;
  std::vector<PipelineStage> finished;
  std::vector<int> delivery_indices;
  std::vector<double> delivery_elapsed;
  std::vector<std::string> delivered_views;
  int finished_events = 0;
  Status final_status;

  void OnStageStarted(PipelineStage stage) override {
    started.push_back(stage);
  }
  void OnStageFinished(PipelineStage stage, double elapsed_s) override {
    EXPECT_GE(elapsed_s, 0.0);
    finished.push_back(stage);
  }
  void OnViewDelivered(const View& view, int delivery_index,
                       double elapsed_s) override {
    delivery_indices.push_back(delivery_index);
    delivery_elapsed.push_back(elapsed_s);
    delivered_views.push_back(ViewKey(view));
  }
  void OnFinished(const Status& status) override {
    ++finished_events;
    final_status = status;
  }
};

TEST(ApiTest, RankingEqualsRankingCopiesOfTheSurvivors) {
  TableRepository repo = MakeRepo();
  Ver system(&repo, VerConfig());
  const ExampleQuery query = CityMayorQuery();
  for (bool distill : {true, false}) {
    SCOPED_TRACE(distill ? "distillation on" : "distillation off");
    RequestOverrides overrides;
    overrides.run_distillation = distill;
    DiscoveryResponse response = system.Execute(
        DiscoveryRequest::ForQuery(query).WithOverrides(overrides));
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    const QueryResult& r = response.result;
    const std::vector<int>& surviving = r.distillation.surviving;
    ASSERT_FALSE(surviving.empty());
    if (!distill) {
      EXPECT_EQ(surviving.size(), r.views.size());
    }
    // The ranking the pipeline computed before it ranked in place: over
    // copies of the survivors, mapped back to indices into r.views.
    std::vector<View> copies;
    for (int i : surviving) copies.push_back(r.views[i]);
    std::vector<OverlapRankedView> want = RankViewsByOverlap(copies, query);
    for (OverlapRankedView& v : want) v.view_index = surviving[v.view_index];
    ASSERT_EQ(r.automatic_ranking.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(r.automatic_ranking[i].view_index, want[i].view_index) << i;
      EXPECT_EQ(r.automatic_ranking[i].overlap, want[i].overlap) << i;
      EXPECT_EQ(r.automatic_ranking[i].score, want[i].score) << i;
    }
  }
}

TEST(ApiTest, OverridesMergeExactlyLikeAReconfiguredSystem) {
  TableRepository repo = MakeRepo();
  ExampleQuery query = CityMayorQuery();

  RequestOverrides overrides;
  overrides.theta = 2;
  overrides.max_hops = 1;
  overrides.expected_views = 2;
  overrides.run_distillation = false;

  VerConfig base;
  Ver base_system(&repo, base);
  DiscoveryResponse via_overrides = base_system.Execute(
      DiscoveryRequest::ForQuery(query).WithOverrides(overrides));
  ASSERT_TRUE(via_overrides.status.ok());

  // A system constructed with the merged config must answer identically —
  // overrides are a per-request view of exactly those knobs.
  const DiscoveryRequest plain = DiscoveryRequest::ForQuery(query);
  Ver merged_system(&repo, overrides.MergedOver(base));
  EXPECT_EQ(Fingerprint(via_overrides.result),
            Fingerprint(merged_system.Execute(plain).result));

  // The base system is unaffected by override traffic.
  EXPECT_EQ(Fingerprint(base_system.Execute(plain).result),
            Fingerprint(Ver(&repo, base).Execute(plain).result));
}

TEST(ApiTest, ValidationRejectionMatrix) {
  TableRepository repo = MakeRepo();
  Ver system(&repo, VerConfig());

  auto expect_invalid = [&](DiscoveryRequest request, const char* what) {
    DiscoveryResponse response = system.Execute(request);
    EXPECT_TRUE(response.status.IsInvalidArgument())
        << what << ": " << response.status.ToString();
    EXPECT_TRUE(response.result.views.empty()) << what;
    EXPECT_TRUE(response.result.selection.empty()) << what;
    EXPECT_TRUE(response.result.automatic_ranking.empty()) << what;
  };

  // Malformed queries.
  expect_invalid(DiscoveryRequest::ForQuery(ExampleQuery()), "empty query");
  expect_invalid(DiscoveryRequest::ForQuery(
                     ExampleQuery::FromColumns({{"Boston"}, {}})),
                 "attribute with zero examples");
  ExampleQuery misaligned = CityMayorQuery();
  misaligned.attribute_hints.pop_back();
  expect_invalid(DiscoveryRequest::ForQuery(misaligned),
                 "attribute_hints/columns size mismatch");
  expect_invalid(DiscoveryRequest::ForCandidates({}, CityMayorQuery()),
                 "candidate request without candidates");

  // Out-of-range overrides, one knob at a time.
  auto with = [&](auto setter) {
    DiscoveryRequest request = DiscoveryRequest::ForQuery(CityMayorQuery());
    setter(&request.overrides);
    return request;
  };
  expect_invalid(with([](RequestOverrides* o) { o->theta = 0; }), "theta=0");
  expect_invalid(with([](RequestOverrides* o) { o->max_hops = 0; }), "rho=0");
  expect_invalid(
      with([](RequestOverrides* o) { o->cluster_similarity_threshold = 1.5; }),
      "cluster threshold out of range");
  expect_invalid(
      with([](RequestOverrides* o) { o->key_uniqueness_threshold = 0.0; }),
      "key uniqueness threshold out of range");
  expect_invalid(
      with([](RequestOverrides* o) { o->max_combinations = 0; }),
      "max_combinations=0");

  // Relative deadlines that are not finite numbers.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double deadline_s : {nan, inf, -inf}) {
    DiscoveryRequest request = DiscoveryRequest::ForQuery(CityMayorQuery());
    request.deadline_s = deadline_s;
    const std::string what = "deadline_s=" + std::to_string(deadline_s);
    expect_invalid(request, what.c_str());
    const std::string message = request.Validate().ToString();
    EXPECT_NE(message.find("deadline_s"), std::string::npos) << what;
  }

  // Validation comes before the deadline and cancellation checks: an
  // invalid request that is also past its deadline and cancelled reports
  // InvalidArgument.
  const std::atomic<bool> cancelled{true};
  DiscoveryRequest expired = DiscoveryRequest::ForQuery(ExampleQuery());
  expired.deadline = std::chrono::steady_clock::now();
  expired.cancel = &cancelled;
  expect_invalid(expired, "empty query, expired and cancelled");

  // A well-formed request still flows.
  DiscoveryResponse ok = system.Execute(
      DiscoveryRequest::ForQuery(CityMayorQuery()));
  EXPECT_TRUE(ok.status.ok());
  EXPECT_FALSE(ok.result.views.empty());
}

TEST(ApiTest, ServerRejectsInvalidRequestsAtSubmit) {
  TableRepository repo = MakeRepo();
  VerServer server(&repo, VerConfig(), ServingOptions());
  ServedResult served =
      server.Serve(DiscoveryRequest::ForQuery(ExampleQuery()));
  EXPECT_TRUE(served.status.IsInvalidArgument()) << served.status.ToString();
  EXPECT_EQ(served.result, nullptr);
  DiscoveryRequest nan_deadline = DiscoveryRequest::ForQuery(CityMayorQuery());
  nan_deadline.deadline_s = std::numeric_limits<double>::quiet_NaN();
  served = server.Serve(std::move(nan_deadline));
  EXPECT_TRUE(served.status.IsInvalidArgument()) << served.status.ToString();
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.invalid, 2);
  EXPECT_EQ(stats.served_ok, 0);
  // Invalid requests never reach the queue or the cache.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0);
}

TEST(ApiTest, CanonicalKeyDistinguishesEveryKnob) {
  DiscoveryRequest base = DiscoveryRequest::ForQuery(CityMayorQuery());
  std::string base_key = base.CanonicalKey();

  // Equal requests share a key; execution controls do not participate.
  DiscoveryRequest same = DiscoveryRequest::ForQuery(CityMayorQuery());
  same.deadline_s = 3.5;
  EXPECT_EQ(same.CanonicalKey(), base_key);

  std::vector<DiscoveryRequest> different;
  auto add = [&](auto setter) {
    DiscoveryRequest request = DiscoveryRequest::ForQuery(CityMayorQuery());
    setter(&request);
    different.push_back(std::move(request));
  };
  add([](DiscoveryRequest* r) {
    r->overrides.selection_strategy = SelectionStrategy::kSelectAll;
  });
  add([](DiscoveryRequest* r) { r->overrides.theta = 2; });
  add([](DiscoveryRequest* r) {
    r->overrides.cluster_similarity_threshold = 0.75;
  });
  add([](DiscoveryRequest* r) { r->overrides.fuzzy_fallback = false; });
  add([](DiscoveryRequest* r) { r->overrides.max_hops = 3; });
  add([](DiscoveryRequest* r) { r->overrides.expected_views = 7; });
  add([](DiscoveryRequest* r) { r->overrides.max_combinations = 10; });
  add([](DiscoveryRequest* r) { r->overrides.run_distillation = false; });
  add([](DiscoveryRequest* r) {
    r->overrides.key_uniqueness_threshold = 0.8;
  });
  add([](DiscoveryRequest* r) { r->overrides.composite_keys = true; });
  add([](DiscoveryRequest* r) { r->StopAfter(3); });
  add([](DiscoveryRequest* r) { r->query.columns[0].push_back("Austin"); });

  std::vector<std::string> keys;
  for (const DiscoveryRequest& r : different) {
    keys.push_back(r.CanonicalKey());
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_NE(keys[i], base_key) << "request " << i << " aliases the base";
    for (size_t j = i + 1; j < keys.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
    }
  }

  // Nearby doubles canonicalize by bit pattern, not by formatting.
  DiscoveryRequest a = DiscoveryRequest::ForQuery(CityMayorQuery());
  DiscoveryRequest b = DiscoveryRequest::ForQuery(CityMayorQuery());
  a.overrides.cluster_similarity_threshold = 0.5;
  b.overrides.cluster_similarity_threshold = 0.5 + 1e-12;
  EXPECT_NE(a.CanonicalKey(), b.CanonicalKey());
}

TEST(ApiTest, CacheHitsRequireIdenticalRequests) {
  TableRepository repo = MakeRepo();
  ServingOptions serving;
  serving.num_workers = 2;
  serving.cache_capacity = 16;
  VerServer server(&repo, VerConfig(), serving);
  ExampleQuery query = CityMayorQuery();

  // Identical requests: one miss, then a hit returning the same object.
  ServedResult first = server.Serve(DiscoveryRequest::ForQuery(query));
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);
  ServedResult second = server.Serve(DiscoveryRequest::ForQuery(query));
  ASSERT_TRUE(second.status.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.result.get(), first.result.get());

  // Any differing override misses: a theta=2 request must not be answered
  // by the theta=1 result even though the query text is identical.
  DiscoveryRequest theta2 = DiscoveryRequest::ForQuery(query);
  theta2.overrides.theta = 2;
  ServedResult third = server.Serve(theta2);
  ASSERT_TRUE(third.status.ok());
  EXPECT_FALSE(third.cache_hit);

  // A StopAfter request misses the full result's entry too.
  ServedResult fourth =
      server.Serve(DiscoveryRequest::ForQuery(query).StopAfter(1));
  ASSERT_TRUE(fourth.status.ok());
  EXPECT_FALSE(fourth.cache_hit);

  // The early-termination flag survives the cache: a hit of a StopAfter
  // entry reports the truncation its original run observed.
  ServedResult fifth =
      server.Serve(DiscoveryRequest::ForQuery(query).StopAfter(1));
  ASSERT_TRUE(fifth.status.ok());
  EXPECT_TRUE(fifth.cache_hit);
  EXPECT_EQ(fifth.result.get(), fourth.result.get());
  EXPECT_EQ(fifth.early_terminated, fourth.early_terminated);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.cache_hits, 2);
  EXPECT_EQ(stats.cache_misses, 3);
  EXPECT_EQ(stats.requests_with_overrides, 1);
  EXPECT_EQ(stats.requests_streaming, 2);
  // theta is knob 1 in the canonical order.
  EXPECT_EQ(stats.override_uses[1], 1);
  EXPECT_EQ(stats.override_uses[0], 0);
}

TEST(ApiTest, StopAfterReturnsPrefixOfFullRankedViewSequence) {
  TableRepository repo = MakeRepo();
  Ver system(&repo, VerConfig());
  ExampleQuery query = CityMayorQuery();

  // Distillation off: every materialized view survives, so delivery order
  // is exactly the ranked candidate order and the prefix is strict.
  RequestOverrides no_distill;
  no_distill.run_distillation = false;
  DiscoveryRequest full_request =
      DiscoveryRequest::ForQuery(query).WithOverrides(no_distill);
  DiscoveryResponse full = system.Execute(full_request);
  ASSERT_TRUE(full.status.ok());
  size_t total = full.result.views.size();
  ASSERT_GE(total, 2u) << "fixture must produce several views";

  for (int k = 1; k <= static_cast<int>(total); ++k) {
    DiscoveryRequest early_request = full_request;
    early_request.StopAfter(k);
    DiscoveryResponse early = system.Execute(early_request);
    ASSERT_TRUE(early.status.ok());
    ASSERT_EQ(early.result.views.size(), static_cast<size_t>(k));
    for (int i = 0; i < k; ++i) {
      EXPECT_EQ(ViewKey(early.result.views[i]), ViewKey(full.result.views[i]))
          << "k=" << k << " view " << i;
    }
    EXPECT_EQ(early.views_delivered, k);
    EXPECT_EQ(early.early_terminated, k < static_cast<int>(total));
    // The response ranking covers exactly the delivered prefix.
    EXPECT_EQ(early.result.automatic_ranking.size(), static_cast<size_t>(k));
  }

  // StopAfter(total) processed everything: bit-identical to the full run.
  DiscoveryRequest exact = full_request;
  exact.StopAfter(static_cast<int>(total));
  EXPECT_EQ(Fingerprint(system.Execute(exact).result),
            Fingerprint(full.result));

  // With distillation on, the view sequence is still a prefix (the stop
  // condition counts survivors, so more candidates may materialize).
  DiscoveryResponse full_distilled =
      system.Execute(DiscoveryRequest::ForQuery(query));
  ASSERT_TRUE(full_distilled.status.ok());
  DiscoveryResponse early_distilled =
      system.Execute(DiscoveryRequest::ForQuery(query).StopAfter(1));
  ASSERT_TRUE(early_distilled.status.ok());
  ASSERT_GE(early_distilled.result.views.size(), 1u);
  ASSERT_LE(early_distilled.result.views.size(),
            full_distilled.result.views.size());
  for (size_t i = 0; i < early_distilled.result.views.size(); ++i) {
    EXPECT_EQ(ViewKey(early_distilled.result.views[i]),
              ViewKey(full_distilled.result.views[i]));
  }
  EXPECT_GE(early_distilled.views_delivered, 1);
}

TEST(ApiTest, StreamedEventsArriveInPipelineOrder) {
  TableRepository repo = MakeRepo();
  Ver system(&repo, VerConfig());

  RecordingObserver observer;
  DiscoveryResponse response = system.Execute(
      DiscoveryRequest::ForQuery(CityMayorQuery()), &observer);
  ASSERT_TRUE(response.status.ok());

  // Every started stage finishes, in the same order.
  ASSERT_EQ(observer.started.size(), observer.finished.size());
  EXPECT_EQ(observer.started, observer.finished);
  // Full pipeline: CS -> JGS -> M -> 4C -> ranking (no spill, so no VD-IO).
  std::vector<PipelineStage> expected = {
      PipelineStage::kColumnSelection, PipelineStage::kJoinGraphSearch,
      PipelineStage::kMaterialization, PipelineStage::kDistillation,
      PipelineStage::kRanking};
  EXPECT_EQ(observer.started, expected);

  // Deliveries: one per surviving view, indices 0..n-1, all within total_s.
  EXPECT_EQ(observer.delivered_views.size(),
            response.result.distillation.surviving.size());
  EXPECT_EQ(response.views_delivered,
            static_cast<int>(observer.delivered_views.size()));
  for (size_t i = 0; i < observer.delivery_indices.size(); ++i) {
    EXPECT_EQ(observer.delivery_indices[i], static_cast<int>(i));
    EXPECT_LE(observer.delivery_elapsed[i], response.total_s);
  }
  EXPECT_EQ(observer.finished_events, 1);
  EXPECT_TRUE(observer.final_status.ok());

  // An invalid request fires OnFinished only.
  RecordingObserver invalid_observer;
  DiscoveryResponse invalid = system.Execute(
      DiscoveryRequest::ForQuery(ExampleQuery()), &invalid_observer);
  EXPECT_TRUE(invalid.status.IsInvalidArgument());
  EXPECT_TRUE(invalid_observer.started.empty());
  EXPECT_TRUE(invalid_observer.delivered_views.empty());
  EXPECT_EQ(invalid_observer.finished_events, 1);
  EXPECT_TRUE(invalid_observer.final_status.IsInvalidArgument());
}

TEST(ApiTest, ServerStreamsEventsAndPollsUnderConcurrency) {
  // TSan workload: 8 concurrent streaming submissions, each with its own
  // observer, against 4 workers — events fire on worker threads while the
  // submitting threads poll.
  TableRepository repo = MakeRepo();
  Ver serial(&repo, VerConfig());
  ExampleQuery query = CityMayorQuery();
  std::string expected =
      Fingerprint(serial.Execute(DiscoveryRequest::ForQuery(query)).result);

  ServingOptions serving;
  serving.num_workers = 4;
  serving.cache_capacity = 8;
  VerServer server(&repo, VerConfig(), serving);

  constexpr int kClients = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&] {
      RecordingObserver observer;
      auto ticket =
          server.Submit(DiscoveryRequest::ForQuery(query), &observer);
      while (!ticket->Poll()) {
        std::this_thread::yield();
      }
      const ServedResult& served = ticket->Wait();
      if (!served.status.ok() || served.result == nullptr ||
          Fingerprint(*served.result) != expected) {
        mismatches.fetch_add(1);
        return;
      }
      // Events observed == views delivered, whether the result came from a
      // pipeline run or was re-delivered from the cache.
      if (static_cast<int>(observer.delivered_views.size()) !=
              served.views_delivered ||
          served.views_delivered != ticket->views_delivered() ||
          observer.finished_events != 1) {
        mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, kClients);
  EXPECT_EQ(stats.served_ok, kClients);
  EXPECT_EQ(stats.current_queue_depth, 0);
  EXPECT_GE(stats.peak_queue_depth, 1);
}

TEST(ApiTest, ExplicitNonPositiveDeadlineOverridesServerDefault) {
  // A negative deadline_s (WithDeadline(-1)) means *no* deadline, even when
  // the server configures a default that would expire instantly.
  TableRepository repo = MakeRepo();
  ServingOptions serving;
  serving.num_workers = 1;
  serving.default_deadline_s = 1e-9;  // default alone would always expire
  VerServer server(&repo, VerConfig(), serving);
  const DiscoveryRequest request = DiscoveryRequest::ForQuery(CityMayorQuery());

  // Sanity: the default really does expire queued queries.
  ServedResult defaulted = server.Serve(request);
  EXPECT_TRUE(defaulted.status.IsDeadlineExceeded())
      << defaulted.status.ToString();

  // An absolute deadline does not suppress the default: the earlier of the
  // two still wins.
  DiscoveryRequest absolute = request;
  absolute.deadline = std::chrono::steady_clock::now() + std::chrono::hours(1);
  ServedResult absolute_only = server.Serve(absolute);
  EXPECT_TRUE(absolute_only.status.IsDeadlineExceeded())
      << absolute_only.status.ToString();

  // Explicit "none" suppresses the default.
  DiscoveryRequest none = request;
  none.WithDeadline(-1);
  ServedResult none_request = server.Serve(none);
  EXPECT_TRUE(none_request.status.ok()) << none_request.status.ToString();
}

TEST(ApiTest, DeadlinePastTheClockRangeIsNoDeadline) {
  // A relative deadline too far out for the clock saturates to "none"
  // instead of overflowing the conversion to clock ticks.
  TableRepository repo = MakeRepo();
  const DiscoveryRequest request =
      DiscoveryRequest::ForQuery(CityMayorQuery()).WithDeadline(1e300);
  Ver system(&repo, VerConfig());
  DiscoveryResponse executed = system.Execute(request);
  EXPECT_TRUE(executed.status.ok()) << executed.status.ToString();
  EXPECT_FALSE(executed.result.views.empty());

  VerServer server(&repo, VerConfig(), ServingOptions());
  ServedResult served = server.Serve(request);
  EXPECT_TRUE(served.status.ok()) << served.status.ToString();
  ASSERT_NE(served.result, nullptr);
  EXPECT_EQ(Fingerprint(*served.result), Fingerprint(executed.result));
}

TEST(ApiTest, StreamingCancellationBalancesStageEvents) {
  // Cancel mid-stream (the flag flips when JOIN-GRAPH-SEARCH finishes, so
  // the per-candidate check aborts the materialization loop): every
  // started stage must still finish — observers may pair the events.
  TableRepository repo = MakeRepo();
  Ver system(&repo, VerConfig());

  struct CancellingObserver : public RecordingObserver {
    std::atomic<bool>* flag = nullptr;
    void OnStageFinished(PipelineStage stage, double elapsed_s) override {
      RecordingObserver::OnStageFinished(stage, elapsed_s);
      if (stage == PipelineStage::kJoinGraphSearch) flag->store(true);
    }
  };

  std::atomic<bool> cancel{false};
  CancellingObserver observer;
  observer.flag = &cancel;
  DiscoveryRequest request =
      DiscoveryRequest::ForQuery(CityMayorQuery()).StopAfter(1);
  request.cancel = &cancel;
  DiscoveryResponse response = system.Execute(request, &observer);
  EXPECT_TRUE(response.status.IsCancelled()) << response.status.ToString();
  EXPECT_EQ(observer.started, observer.finished);
  EXPECT_EQ(observer.finished_events, 1);
}

}  // namespace
}  // namespace ver
