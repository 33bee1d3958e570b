// Fixed-size worker pool for the offline discovery path.
//
// The design goal is determinism, not just speed: ParallelFor partitions an
// index range into contiguous chunks whose boundaries depend only on
// (n, num_chunks), so callers that merge per-chunk results in chunk order
// produce output bit-identical to a serial run regardless of worker count or
// scheduling.

#ifndef VER_UTIL_THREAD_POOL_H_
#define VER_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace ver {

/// A pool of `num_threads` workers draining a shared task queue.
///
/// Intended usage is phase-at-a-time: submit a batch of tasks, Wait() for
/// all of them, then move to the next phase. Tasks must not Submit() from
/// inside the pool (no nesting) and must not throw.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task for execution on some worker.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::queue<std::function<void()>> tasks_ VER_GUARDED_BY(mu_);
  CondVar task_ready_;
  CondVar all_done_;
  size_t in_flight_ VER_GUARDED_BY(mu_) = 0;
  bool stop_ VER_GUARDED_BY(mu_) = false;
};

/// Resolves a `parallelism` knob to a worker count: 0 means "all hardware
/// threads", anything else is clamped to at least 1.
int ResolveParallelism(int parallelism);

/// Splits [0, n) into `num_chunks` contiguous chunks and runs
/// `fn(chunk_index, begin, end)` for each, blocking until all finish.
///
/// With a null pool or a single worker the chunks run inline, in chunk
/// order; otherwise they run concurrently. Chunk boundaries are a pure
/// function of (n, num_chunks), never of the pool, so per-chunk results
/// merged in chunk order are identical either way.
void ParallelFor(ThreadPool* pool, size_t n, size_t num_chunks,
                 const std::function<void(size_t, size_t, size_t)>& fn);

/// Chunk count giving decent load balance for `pool` (a small multiple of
/// the worker count); 1 when the pool is absent or serial.
size_t RecommendedChunks(const ThreadPool* pool);

}  // namespace ver

#endif  // VER_UTIL_THREAD_POOL_H_
