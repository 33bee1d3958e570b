// VerServer: the concurrent query-serving layer.
//
// Serves many concurrent discovery requests over one immutable Ver snapshot
// (discovery engine + online pipeline): a fixed worker pool
// (util/thread_pool) drains a bounded submission queue, an LRU cache
// short-circuits repeated requests, and every request carries its own
// pipeline knobs, deadline and cancellation (see api/discovery_request.h).
// Workers run Ver::Execute, so per-request overrides, StopAfter early
// termination and streaming view delivery all work under the server: pass a
// QueryObserver to Submit and its events fire on the worker thread as the
// pipeline progresses. A snapshot's discovery engine is immutable once
// built or loaded (a grown lake is re-indexed offline and swapped in with
// SwapSnapshot), which is what makes the lock-free shared read path safe —
// see the thread-safety contract in discovery/engine.h.
//
// Requests are admitted through one bounded FIFO queue (see
// docs/ARCHITECTURE.md "Serving layer"):
//   - Admission control: Submit fails with Unavailable when the queue is at
//     max_queue_depth — backpressure instead of queueing to death.
//   - Workers dequeue in admission order and every dequeued request runs
//     itself (a cache hit replays a stored result instead). Deadlines and
//     cancellation are checked at dequeue and at every stage boundary.
//   - Per-stage latencies (queue wait, pipeline run, total) feed lock-free
//     log-bucketed histograms (util/latency_recorder.h); stats() reports
//     p50/p99/p999 per stage.
//
// The result cache is keyed by the *canonicalized request* — query plus the
// set overrides plus StopAfter — prefixed with the snapshot epoch, so two
// requests differing in any knob (a different k, theta, rho, ...) can never
// alias, and a result computed on an old snapshot can never answer a query
// admitted after a hot swap.
//
// Snapshots are hot-swappable: SwapSnapshot atomically replaces the served
// Ver (e.g. with one loaded from a newer DiscoveryEngine::Save file), so a
// re-indexed repository rolls out under traffic with zero downtime.
// Queries hold a shared_ptr to the snapshot they started on — in-flight
// queries finish on the old snapshot, submissions dequeued after the swap
// run on the new one, and the old snapshot is destroyed when its last
// in-flight query (or external reference) drops it.

#ifndef VER_SERVING_VER_SERVER_H_
#define VER_SERVING_VER_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "api/query_observer.h"
#include "core/ver.h"
#include "serving/query_cache.h"
#include "serving/serving_options.h"
#include "storage/repository.h"
#include "util/latency_recorder.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace ver {

/// What the server hands back for one request.
struct ServedResult {
  /// OK, or InvalidArgument (request rejected by validation) /
  /// DeadlineExceeded / Cancelled / Unavailable (queue full or server shut
  /// down). Non-OK results carry no partial data.
  Status status;
  /// The request's result; shared with the cache, so treat as immutable.
  /// Null when status is not OK.
  std::shared_ptr<const QueryResult> result;
  /// True when `result` came from the cache instead of a pipeline run.
  bool cache_hit = false;
  /// True when StopAfter(k) stopped the pipeline early (preserved across
  /// cache hits: a hit reports its original run's flag).
  bool early_terminated = false;
  /// OnViewDelivered events fired for this serve. A cache hit re-delivers
  /// the *surviving* views (in their final order, no stage events), so this
  /// can differ from the original miss when a streamed view was later
  /// pruned by distillation.
  int views_delivered = 0;
  /// Seconds spent queued before a worker picked the request up.
  double queue_wait_s = 0;
  /// Seconds the pipeline (or cache lookup) ran on the worker.
  double run_s = 0;
};

/// Handle for one submitted request. Obtained from VerServer::Submit; safe
/// to share across threads.
class QueryTicket {
 public:
  /// Requests cooperative cancellation: the query fails with Cancelled at
  /// the next pipeline-stage (or candidate) boundary, or immediately if
  /// still queued. No-op once the query finished.
  void Cancel() { cancel_.store(true, std::memory_order_relaxed); }

  /// Blocks until the query finishes and returns its outcome.
  const ServedResult& Wait() const { return future_.get(); }

  /// Non-blocking: true when the result is ready (Wait will not block).
  bool Poll() const {
    return future_.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }

  /// Views streamed so far — grows while the query runs (each increment
  /// follows an OnViewDelivered event on the submitting observer, if any).
  int views_delivered() const {
    return views_delivered_.load(std::memory_order_relaxed);
  }

 private:
  friend class VerServer;
  QueryTicket() : future_(promise_.get_future().share()) {}

  DiscoveryRequest request_;
  /// Caller-owned; events fire on the worker thread running the request.
  QueryObserver* observer_ = nullptr;
  std::chrono::steady_clock::time_point submitted_at_;
  std::atomic<bool> cancel_{false};
  std::atomic<int> views_delivered_{0};
  std::promise<ServedResult> promise_;
  std::shared_future<ServedResult> future_;
};

/// Monotonic counters describing server activity so far (plus two queue
/// gauges and three latency summaries). `override_uses[k]` counts submitted
/// requests that set override knob k — see RequestOverrides::KnobName for
/// the knob order.
struct ServerStats {
  int64_t submitted = 0;          // Submit() calls
  int64_t served_ok = 0;          // finished with OK
  int64_t rejected = 0;           // refused at Submit (queue full/down)
  int64_t invalid = 0;            // refused at Submit (validation failed)
  int64_t cancelled = 0;          // finished Cancelled
  int64_t deadline_exceeded = 0;  // finished DeadlineExceeded
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t pipeline_executions = 0;  // actual Ver::Execute runs on workers
  int64_t snapshot_swaps = 0;       // successful SwapSnapshot calls
  // --- request-shape counters (admitted requests only) ---
  int64_t requests_with_overrides = 0;  // >= 1 override knob set
  int64_t requests_streaming = 0;       // StopAfter(k) requests
  std::array<int64_t, RequestOverrides::kNumKnobs> override_uses{};
  // --- queue gauges ---
  int64_t current_queue_depth = 0;  // admitted, not yet dequeued, right now
  int64_t peak_queue_depth = 0;     // high-water mark since construction
  // --- buffer pool (paged serving; all-zero when the served snapshot is
  //     resident). Snapshot of the pool the *current* snapshot charges;
  //     shared across a hot swap when the loader shared the pool. ---
  bool paged = false;                    // current snapshot borrows an mmap
  uint64_t pool_budget_bytes = 0;        // configured residency ceiling
  int64_t pool_resident_bytes = 0;       // charged bytes right now
  int64_t pool_peak_resident_bytes = 0;  // high-water mark
  int64_t pool_hits = 0;                 // frame touches already resident
  int64_t pool_misses = 0;               // frame loads (faulted extents)
  int64_t pool_evictions = 0;            // frames madvised away
  // --- per-stage latency (util/latency_recorder.h log-bucketed
  //     histograms; quantiles carry <= ~3% bucket quantization) ---
  LatencyStats queue_wait;  // dequeue time - submit time, every dequeue
  LatencyStats pipeline;    // Ver::Execute wall clock, actual runs only
  LatencyStats total;       // submit -> completion, every worker-completed
                            // request (Submit-time rejects excluded)
};

/// Concurrent discovery serving over one repository.
///
/// Thread-safety: Submit, Serve, Shutdown, SwapSnapshot, snapshot and
/// stats may be called from any thread. Results are identical to serial
/// Ver::Execute execution (tests/serving_test.cc and tests/api_test.cc
/// guard bit-identity under 8 concurrent threads, including under
/// concurrent swaps and streaming observers).
class VerServer {
 public:
  /// Builds the discovery index (offline, possibly parallel per
  /// `config.discovery.parallelism`) and starts the serving workers.
  /// `repo` must outlive the server and must not be mutated while serving.
  /// Spilling (`config.spill_dir`) is safe under concurrency: every query
  /// spills into its own subdirectory (see core/ver.h).
  VerServer(const TableRepository* repo, VerConfig config,
            ServingOptions options);

  /// Starts serving an already-built system — typically one constructed
  /// from a snapshot via DiscoveryEngine::Load + the Ver engine-adopting
  /// constructor — so a server process can come up without rebuilding any
  /// index. The Ver's repository must outlive the server.
  VerServer(std::shared_ptr<const Ver> ver, ServingOptions options);

  /// Drains outstanding queries and joins the workers.
  ~VerServer();

  VerServer(const VerServer&) = delete;
  VerServer& operator=(const VerServer&) = delete;

  /// Enqueues one request. Always returns a ticket; a rejected request
  /// (validation failure, queue full, server shut down) carries an
  /// InvalidArgument / Unavailable status. When `request.deadline_s <= 0`,
  /// ServingOptions::default_deadline_s applies. `observer` (optional,
  /// caller-owned, must outlive the ticket's completion) receives the
  /// pipeline's streamed events on the worker thread — or, for a request
  /// rejected at Submit, a single OnFinished on the submitting thread. On
  /// a cache hit the surviving views are re-delivered
  /// in final order followed by OnFinished (no stage events — the pipeline
  /// did not run for this ticket). The request's `cancel` pointer is
  /// replaced by the ticket's own flag — use QueryTicket::Cancel().
  std::shared_ptr<QueryTicket> Submit(DiscoveryRequest request,
                                      QueryObserver* observer = nullptr);

  /// Legacy shims: a bare QBE query under the default (or given) deadline.
  std::shared_ptr<QueryTicket> Submit(ExampleQuery query) {
    return Submit(DiscoveryRequest::ForQuery(std::move(query)));
  }
  std::shared_ptr<QueryTicket> Submit(ExampleQuery query, double deadline_s) {
    // Legacy contract: an explicit deadline_s <= 0 means *no* deadline,
    // overriding the server default — map it to the request's "explicitly
    // none" encoding (negative).
    return Submit(DiscoveryRequest::ForQuery(std::move(query))
                      .WithDeadline(deadline_s > 0 ? deadline_s : -1));
  }

  /// Submit + Wait, for callers without their own concurrency.
  ServedResult Serve(DiscoveryRequest request);
  ServedResult Serve(ExampleQuery query) {
    return Serve(DiscoveryRequest::ForQuery(std::move(query)));
  }

  /// Stops accepting new queries, serves everything already queued, joins
  /// the workers. Idempotent; also run by the destructor.
  void Shutdown();

  ServerStats stats() const;

  /// Atomically replaces the served snapshot. In-flight queries finish on
  /// the snapshot they dequeued with; queries dequeued afterwards run on
  /// `ver`. Cached results from earlier snapshots become unreachable (the
  /// cache key is epoch-prefixed) and are dropped eagerly. A null `ver` is
  /// rejected (returns false); swapping after Shutdown is a no-op.
  bool SwapSnapshot(std::shared_ptr<const Ver> ver);

  /// The currently served snapshot (for engine statistics, presentation
  /// sessions). Holding the returned pointer keeps that snapshot alive
  /// across later swaps — exactly the guarantee in-flight queries rely on.
  std::shared_ptr<const Ver> snapshot() const;

  const ServingOptions& options() const { return options_; }

 private:
  void ServeOne();
  void Finish(const std::shared_ptr<QueryTicket>& ticket, ServedResult out);

  ServingOptions options_;
  QueryCache cache_;

  // Guards the served snapshot, the submission queue, the accepting flag,
  // the queue-depth peak, and pool submission (so Shutdown cannot destroy
  // the pool under a concurrent Submit).
  mutable Mutex mu_;
  std::shared_ptr<const Ver> ver_ VER_GUARDED_BY(mu_);
  // Bumped per swap; prefixes cache keys so a result computed on an old
  // snapshot can never answer a query admitted after the swap. Strictly
  // monotonic (VER_CHECKed in SwapSnapshot) — a reused epoch would let an
  // old snapshot's cached result answer a post-swap query.
  uint64_t snapshot_epoch_ VER_GUARDED_BY(mu_) = 0;
  /// Admitted, not yet dequeued, in admission order.
  std::deque<std::shared_ptr<QueryTicket>> queue_ VER_GUARDED_BY(mu_);
  int64_t peak_queue_depth_ VER_GUARDED_BY(mu_) = 0;
  bool accepting_ VER_GUARDED_BY(mu_) = true;
  std::unique_ptr<ThreadPool> pool_ VER_GUARDED_BY(mu_);

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> served_ok_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> invalid_{0};
  std::atomic<int64_t> cancelled_{0};
  std::atomic<int64_t> deadline_exceeded_{0};
  std::atomic<int64_t> pipeline_executions_{0};
  std::atomic<int64_t> snapshot_swaps_{0};
  std::atomic<int64_t> requests_with_overrides_{0};
  std::atomic<int64_t> requests_streaming_{0};
  std::array<std::atomic<int64_t>, RequestOverrides::kNumKnobs>
      override_uses_{};

  /// Lock-free per-stage histograms behind ServerStats' latency summaries.
  LatencyRecorder queue_wait_recorder_;
  LatencyRecorder pipeline_recorder_;
  LatencyRecorder total_recorder_;
};

}  // namespace ver

#endif  // VER_SERVING_VER_SERVER_H_
