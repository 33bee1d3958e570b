// ServingOptions: knobs for the concurrent query-serving layer (VerServer).
//
// The paper's system is single-query; serving has no paper counterpart, so
// none of these knobs map to a paper parameter. They control how one
// immutable Ver instance is shared by many concurrent callers: workers, the
// bound on the FIFO submission queue, the result cache and the default
// deadline (see docs/ARCHITECTURE.md "Serving layer").

#ifndef VER_SERVING_SERVING_OPTIONS_H_
#define VER_SERVING_SERVING_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace ver {

struct DiscoveryRequest;

/// Deterministic test instrumentation for VerServer's worker loop. All
/// hooks default to null (zero overhead beyond a branch) and exist so
/// concurrency tests can hold workers at exact points instead of sleeping
/// (tests/server_test_fixture.h). Hooks run on worker threads with no
/// server lock held; a hook may block.
struct ServingHooks {
  /// Runs right after a worker dequeues a ticket, before the queued-expiry
  /// check and cache lookup. Blocking here holds the worker with the
  /// request already off the queue.
  std::function<void()> after_dequeue;
  /// Runs immediately before each actual pipeline execution (never for
  /// cache hits), with the request about to run — the execution-counter
  /// hook.
  std::function<void(const DiscoveryRequest&)> before_execute;
};

struct ServingOptions {
  /// Worker threads draining the submission queue. Units: threads.
  /// Default 4; 0 = all hardware threads (same convention as
  /// DiscoveryOptions::parallelism). Each worker runs one query at a time
  /// end to end, so this bounds in-flight pipeline executions.
  int num_workers = 4;

  /// Bound on queries admitted but not yet started. Units: queries.
  /// Default 256; <= 0 means unbounded. Queued queries start in admission
  /// order. Submit() fails with Unavailable once the backlog is this deep —
  /// backpressure instead of unbounded memory growth (and unbounded
  /// queue-wait tail latency).
  int max_queue_depth = 256;

  /// LRU result-cache capacity. Units: entries (one full QueryResult each).
  /// Default 128; 0 disables caching. Keys are canonicalized queries (see
  /// serving/query_cache.h), so re-ordered example values still hit.
  size_t cache_capacity = 128;

  /// Deadline applied to queries submitted without an explicit one.
  /// Units: seconds of wall-clock time from submission. Default 0 = no
  /// deadline. Checked between pipeline stages and at dequeue, so a query
  /// over deadline fails cleanly with DeadlineExceeded at the next
  /// boundary, never mid-stage.
  double default_deadline_s = 0;

  /// Test-only worker instrumentation; leave default in production.
  ServingHooks hooks;
};

}  // namespace ver

#endif  // VER_SERVING_SERVING_OPTIONS_H_
