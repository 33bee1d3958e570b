// ServingOptions: knobs for the concurrent query-serving layer (VerServer).
//
// The paper's system is single-query; serving has no paper counterpart, so
// none of these knobs map to a paper parameter. They control how one
// immutable Ver instance is shared by many concurrent callers, and how the
// server defends its tail latency under overload (admission control, queue
// ordering, single-flight coalescing — see docs/ARCHITECTURE.md "Serving
// layer").

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
  /// check, cache lookup, or coalescing decision. Blocking here holds the
  /// worker with the request already off the queue.
  std::function<void()> after_dequeue;
  /// Runs immediately before each actual pipeline execution (never for
  /// cache hits or coalesced followers), with the request about to run —
  /// the execution-counter hook.
  std::function<void(const DiscoveryRequest&)> before_execute;
  /// Runs after a request attaches to an in-flight leader as a
  /// single-flight follower, with the group's follower count so far.
  std::function<void(int)> on_follower_attached;
};

struct ServingOptions {
  /// Worker threads draining the submission queue. Units: threads.
  /// Default 4; 0 = all hardware threads (same convention as
  /// DiscoveryOptions::parallelism). Each worker runs one query at a time
  /// end to end, so this bounds in-flight pipeline executions.
  int num_workers = 4;

  /// Bound on queries admitted but not yet started. Units: queries.
  /// Default 256; <= 0 means unbounded. Submit() fails with Unavailable
  /// once the backlog is this deep — backpressure instead of unbounded
  /// memory growth (and unbounded queue-wait tail latency).
  int max_queue_depth = 256;

  /// Dispatch queued requests earliest-effective-deadline first (FIFO among
  /// equal deadlines and among requests without one) instead of strictly
  /// FIFO. Default true: under load, requests that can still meet their
  /// deadline run before ones with slack, which cuts deadline-miss rate
  /// without starving anyone (a deadline-free request's queue position
  /// only ever improves as deadlined traffic drains ahead of it).
  bool deadline_ordered_queue = true;

  /// Predictive load shedding: reject a submission with Unavailable at
  /// admission when its effective deadline cannot be met even optimistically
  /// — estimated start delay (queued requests ahead of it, divided across
  /// the workers, times the EWMA pipeline time) already exceeds the time
  /// remaining. Default false; only requests carrying a deadline are ever
  /// shed this way, and never before the server has seen one pipeline run.
  bool predictive_deadline_shedding = false;

  /// Single-flight coalescing of identical in-flight queries. The result
  /// cache only catches *completed* duplicates; under skewed traffic the
  /// same hot query otherwise runs concurrently many times. When true
  /// (default), a dequeued request whose canonical key (same epoch, same
  /// query, same knobs — the cache key) matches a currently-executing
  /// request attaches to that leader instead of running: the leader's
  /// result is shared with every follower and the streamed views are
  /// re-delivered to each follower's observer. Works with the cache off.
  bool single_flight = true;

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
