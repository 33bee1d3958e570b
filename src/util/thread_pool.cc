#include "util/thread_pool.h"

#include <algorithm>

namespace ver {

ThreadPool::ThreadPool(int num_threads) {
  int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
  }
  task_ready_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (in_flight_ != 0) all_done_.Wait(mu_);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stop_ && tasks_.empty()) task_ready_.Wait(mu_);
      if (tasks_.empty()) return;  // stop requested and queue drained
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      MutexLock lock(&mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

int ResolveParallelism(int parallelism) {
  if (parallelism == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return std::max(1, parallelism);
}

void ParallelFor(ThreadPool* pool, size_t n, size_t num_chunks,
                 const std::function<void(size_t, size_t, size_t)>& fn) {
  if (n == 0) return;
  num_chunks = std::max<size_t>(1, std::min(num_chunks, n));
  if (pool == nullptr || pool->num_threads() <= 1 || num_chunks == 1) {
    for (size_t c = 0; c < num_chunks; ++c) {
      fn(c, c * n / num_chunks, (c + 1) * n / num_chunks);
    }
    return;
  }
  for (size_t c = 0; c < num_chunks; ++c) {
    size_t begin = c * n / num_chunks;
    size_t end = (c + 1) * n / num_chunks;
    pool->Submit([&fn, c, begin, end] { fn(c, begin, end); });
  }
  pool->Wait();
}

size_t RecommendedChunks(const ThreadPool* pool) {
  if (pool == nullptr || pool->num_threads() <= 1) return 1;
  return static_cast<size_t>(pool->num_threads()) * 4;
}

}  // namespace ver
