#include "serving/ver_server.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.h"

namespace ver {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Worker-side observer: counts delivered views into the ticket (so
// QueryTicket::views_delivered and Poll-based progress work) and forwards
// every event to the caller's observer, if any.
class TicketObserver : public QueryObserver {
 public:
  TicketObserver(std::atomic<int>* delivered, QueryObserver* user)
      : delivered_(delivered), user_(user) {}

  void OnStageStarted(PipelineStage stage) override {
    if (user_ != nullptr) user_->OnStageStarted(stage);
  }
  void OnStageFinished(PipelineStage stage, double elapsed_s) override {
    if (user_ != nullptr) user_->OnStageFinished(stage, elapsed_s);
  }
  void OnViewDelivered(const View& view, int delivery_index,
                       double elapsed_s) override {
    delivered_->fetch_add(1, std::memory_order_relaxed);
    if (user_ != nullptr) user_->OnViewDelivered(view, delivery_index, elapsed_s);
  }
  void OnFinished(const Status& status) override {
    if (user_ != nullptr) user_->OnFinished(status);
  }

 private:
  std::atomic<int>* delivered_;
  QueryObserver* user_;
};

}  // namespace

VerServer::VerServer(const TableRepository* repo, VerConfig config,
                     ServingOptions options)
    : VerServer(
          [&] {
            // A server runs indefinitely; per-query spill directories must
            // not accumulate.
            config.cleanup_spilled_views = true;
            return std::make_shared<const Ver>(repo, std::move(config));
          }(),
          options) {}

VerServer::VerServer(std::shared_ptr<const Ver> ver, ServingOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity),
      ver_(std::move(ver)) {
  const int workers = ResolveParallelism(options_.num_workers);
  MutexLock lock(&mu_);
  pool_ = std::make_unique<ThreadPool>(workers);
}

bool VerServer::SwapSnapshot(std::shared_ptr<const Ver> ver) {
  if (ver == nullptr) return false;
  {
    MutexLock lock(&mu_);
    if (!accepting_) return false;
    ver_ = std::move(ver);
    const uint64_t prev_epoch = snapshot_epoch_;
    ++snapshot_epoch_;
    // The cache-correctness argument below hinges on epochs never reusing
    // a value; a wrapped counter would let an old snapshot's entry answer
    // a post-swap query.
    VER_CHECK(snapshot_epoch_ > prev_epoch) << "snapshot epoch overflowed";
  }
  snapshot_swaps_.fetch_add(1, std::memory_order_relaxed);
  // Results computed on earlier snapshots are keyed under earlier epochs
  // and can never hit again; drop them now instead of waiting for LRU
  // eviction. A racing worker that finishes an old-snapshot query after
  // this point re-inserts under its old epoch key, which is merely dead
  // weight, never a stale answer.
  cache_.Clear();
  return true;
}

std::shared_ptr<const Ver> VerServer::snapshot() const {
  MutexLock lock(&mu_);
  return ver_;
}

VerServer::~VerServer() { Shutdown(); }

std::shared_ptr<QueryTicket> VerServer::Submit(DiscoveryRequest request,
                                               QueryObserver* observer) {
  std::shared_ptr<QueryTicket> ticket(new QueryTicket());
  ticket->request_ = std::move(request);
  ticket->observer_ = observer;
  ticket->submitted_at_ = std::chrono::steady_clock::now();
  submitted_.fetch_add(1, std::memory_order_relaxed);

  auto reject = [&](Status status) {
    // OnFinished is the terminal event even for requests that never reach
    // a worker; it fires on the submitting thread here.
    if (observer != nullptr) observer->OnFinished(status);
    ServedResult out;
    out.status = std::move(status);
    ticket->promise_.set_value(std::move(out));
    return ticket;
  };

  // Validation happens at admission, before any queue slot is consumed —
  // the worker-side Execute would reject the same request, but failing
  // here keeps garbage out of the queue and the stats clean.
  Status valid = ticket->request_.Validate();
  if (!valid.ok()) {
    invalid_.fetch_add(1, std::memory_order_relaxed);
    return reject(std::move(valid));
  }

  // Resolve the effective deadline once, at submission: a positive
  // deadline_s wins, 0 (unset) falls back to the server default, negative
  // means explicitly none (suppresses the default); the earliest absolute
  // deadline wins overall. The ticket's cancel flag replaces any
  // caller-supplied pointer so QueryTicket::Cancel is the one knob.
  DiscoveryRequest& req = ticket->request_;
  double relative_s = req.deadline_s != 0 ? req.deadline_s
                                          : options_.default_deadline_s;
  req.deadline = std::min(req.deadline, DeadlineAfter(relative_s));
  req.deadline_s = 0;  // consumed; Execute sees the absolute deadline only
  req.cancel = &ticket->cancel_;

  // Admission decision under the lock; the reject path (which may call the
  // caller's observer) runs outside it.
  Status admit;
  {
    MutexLock lock(&mu_);
    if (!accepting_ || pool_ == nullptr) {
      admit = Status::Unavailable("server is shut down");
    } else if (options_.max_queue_depth > 0 &&
               static_cast<int>(queue_.size()) >= options_.max_queue_depth) {
      admit = Status::Unavailable("submission queue is full");
    } else {
      queue_.push_back(ticket);
      // Admission happens strictly under mu_, so an admitted request can
      // never push the queue past the configured bound.
      VER_DCHECK(options_.max_queue_depth <= 0 ||
                 static_cast<int>(queue_.size()) <= options_.max_queue_depth)
          << "queue depth " << queue_.size() << " exceeds bound "
          << options_.max_queue_depth;
      if (static_cast<int64_t>(queue_.size()) > peak_queue_depth_) {
        peak_queue_depth_ = static_cast<int64_t>(queue_.size());
      }
      pool_->Submit([this] { ServeOne(); });
    }
  }
  if (!admit.ok()) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return reject(std::move(admit));
  }

  // Request-shape counters cover admitted requests only.
  if (req.overrides.any()) {
    requests_with_overrides_.fetch_add(1, std::memory_order_relaxed);
    for (int k = 0; k < RequestOverrides::kNumKnobs; ++k) {
      if (req.overrides.knob_set(k)) {
        override_uses_[static_cast<size_t>(k)].fetch_add(
            1, std::memory_order_relaxed);
      }
    }
  }
  if (req.stop_after > 0) {
    requests_streaming_.fetch_add(1, std::memory_order_relaxed);
  }
  return ticket;
}

ServedResult VerServer::Serve(DiscoveryRequest request) {
  return Submit(std::move(request))->Wait();
}

void VerServer::Shutdown() {
  std::unique_ptr<ThreadPool> pool;
  {
    MutexLock lock(&mu_);
    accepting_ = false;
    pool = std::move(pool_);
  }
  // The pool destructor runs every already-submitted ServeOne task, so all
  // queued tickets complete before Shutdown returns.
  pool.reset();
}

void VerServer::ServeOne() {
  std::shared_ptr<QueryTicket> ticket;
  std::shared_ptr<const Ver> snapshot;
  uint64_t epoch;
  {
    MutexLock lock(&mu_);
    if (queue_.empty()) return;  // ticket served by an earlier task
    ticket = std::move(queue_.front());
    queue_.pop_front();
    // The snapshot is pinned at dequeue: this query runs to completion on
    // it even if SwapSnapshot replaces the served snapshot mid-run.
    snapshot = ver_;
    epoch = snapshot_epoch_;
  }
  VER_DCHECK(ticket != nullptr) << "null ticket admitted to queue";
  VER_DCHECK(snapshot != nullptr) << "serving with no snapshot installed";
  if (options_.hooks.after_dequeue) options_.hooks.after_dequeue();

  const auto started = std::chrono::steady_clock::now();
  const double queue_wait_s =
      std::chrono::duration<double>(started - ticket->submitted_at_).count();
  queue_wait_recorder_.Record(queue_wait_s);

  const DiscoveryRequest& request = ticket->request_;
  TicketObserver observer(&ticket->views_delivered_, ticket->observer_);

  // Requests can expire or be cancelled while queued; fail them without
  // touching the cache counters.
  {
    QueryControl control;
    control.deadline = request.deadline;
    control.cancel = request.cancel;
    Status status = control.Check("serving");
    if (!status.ok()) {
      observer.OnFinished(status);
      ServedResult out;
      out.status = std::move(status);
      out.queue_wait_s = queue_wait_s;
      out.run_s = SecondsSince(started);
      Finish(ticket, std::move(out));
      return;
    }
  }

  // Candidate-based requests are never cached: their candidate columns are
  // not part of the canonical key.
  const bool cacheable =
      options_.cache_capacity > 0 && !request.from_candidates;
  std::string key;
  if (cacheable) {
    // Epoch-prefixed key: entries computed on an older snapshot can never
    // answer a query dequeued after a swap.
    key = std::to_string(epoch) + "|" + request.CanonicalKey();

    bool cached_early_terminated = false;
    if (std::shared_ptr<const QueryResult> cached =
            cache_.Lookup(key, &cached_early_terminated)) {
      // Re-deliver the cached surviving views (final order, no stage
      // events) so a streaming client still receives every view the
      // result contains before OnFinished.
      for (int idx : cached->distillation.surviving) {
        observer.OnViewDelivered(
            cached->views[static_cast<size_t>(idx)],
            ticket->views_delivered_.load(std::memory_order_relaxed),
            SecondsSince(started));
      }
      observer.OnFinished(Status::OK());
      ServedResult out;
      out.result = std::move(cached);
      out.cache_hit = true;
      // A cached StopAfter result reports the truncation its original run
      // observed — a hit must be indistinguishable from a re-run.
      out.early_terminated = cached_early_terminated;
      out.queue_wait_s = queue_wait_s;
      out.run_s = SecondsSince(started);
      out.views_delivered =
          ticket->views_delivered_.load(std::memory_order_relaxed);
      Finish(ticket, std::move(out));
      return;
    }
  }

  if (options_.hooks.before_execute) options_.hooks.before_execute(request);
  pipeline_executions_.fetch_add(1, std::memory_order_relaxed);
  const auto run_started = std::chrono::steady_clock::now();
  DiscoveryResponse response = snapshot->Execute(request, &observer);
  const double run_s = SecondsSince(run_started);
  pipeline_recorder_.Record(run_s);

  ServedResult out;
  out.status = std::move(response.status);
  if (out.status.ok()) {
    out.result =
        std::make_shared<const QueryResult>(std::move(response.result));
    if (cacheable) cache_.Insert(key, out.result, response.early_terminated);
    out.early_terminated = response.early_terminated;
  }
  out.queue_wait_s = queue_wait_s;
  out.run_s = run_s;
  out.views_delivered =
      ticket->views_delivered_.load(std::memory_order_relaxed);
  Finish(ticket, std::move(out));
}

void VerServer::Finish(const std::shared_ptr<QueryTicket>& ticket,
                       ServedResult out) {
  if (out.status.ok()) {
    served_ok_.fetch_add(1, std::memory_order_relaxed);
  } else if (out.status.IsCancelled()) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
  } else if (out.status.IsDeadlineExceeded()) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  }
  // End-to-end latency covers every worker-completed request; Submit-time
  // rejects never reach here, so they do not dilute the served
  // distribution.
  total_recorder_.Record(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    ticket->submitted_at_)
          .count());
  ticket->promise_.set_value(std::move(out));
}

ServerStats VerServer::stats() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.served_ok = served_ok_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.invalid = invalid_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.pipeline_executions =
      pipeline_executions_.load(std::memory_order_relaxed);
  s.snapshot_swaps = snapshot_swaps_.load(std::memory_order_relaxed);
  s.requests_with_overrides =
      requests_with_overrides_.load(std::memory_order_relaxed);
  s.requests_streaming = requests_streaming_.load(std::memory_order_relaxed);
  for (int k = 0; k < RequestOverrides::kNumKnobs; ++k) {
    s.override_uses[static_cast<size_t>(k)] =
        override_uses_[static_cast<size_t>(k)].load(std::memory_order_relaxed);
  }
  QueryCache::Counters c = cache_.counters();
  s.cache_hits = c.hits;
  s.cache_misses = c.misses;
  s.cache_evictions = c.evictions;
  s.queue_wait = queue_wait_recorder_.Snapshot();
  s.pipeline = pipeline_recorder_.Snapshot();
  s.total = total_recorder_.Snapshot();
  std::shared_ptr<const Ver> snap;
  {
    MutexLock lock(&mu_);
    s.current_queue_depth = static_cast<int64_t>(queue_.size());
    s.peak_queue_depth = peak_queue_depth_;
    snap = ver_;
  }
  if (snap != nullptr && snap->engine().pager() != nullptr) {
    const PagerRuntime& pager = *snap->engine().pager();
    BufferPoolStats ps = pager.pool_stats();
    s.paged = true;
    s.pool_budget_bytes = pager.pool()->memory_budget_bytes();
    s.pool_resident_bytes = ps.resident_bytes;
    s.pool_peak_resident_bytes = ps.peak_resident_bytes;
    s.pool_hits = ps.hits;
    s.pool_misses = ps.misses;
    s.pool_evictions = ps.evictions;
  }
  return s;
}

}  // namespace ver
