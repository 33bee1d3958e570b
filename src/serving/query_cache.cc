#include "serving/query_cache.h"

#include <utility>

namespace ver {

std::shared_ptr<const QueryResult> QueryCache::Lookup(
    const std::string& key, bool* early_terminated) {
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++counters_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++counters_.hits;
  if (early_terminated != nullptr) {
    *early_terminated = it->second->early_terminated;
  }
  return it->second->result;
}

void QueryCache::Insert(const std::string& key,
                        std::shared_ptr<const QueryResult> result,
                        bool early_terminated) {
  if (capacity_ == 0) return;
  // The result this call drops (evicted or overwritten) may be its last
  // owner, and freeing a result frees thousands of candidates and views.
  // Declared before the lock, it is destroyed after the unlock, so
  // concurrent Lookups never wait for those frees.
  std::shared_ptr<const QueryResult> dropped;
  MutexLock lock(&mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    dropped = std::exchange(it->second->result, std::move(result));
    it->second->early_terminated = early_terminated;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    dropped = std::move(lru_.back().result);
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++counters_.evictions;
  }
  lru_.push_front(Entry{key, std::move(result), early_terminated});
  index_.emplace(key, lru_.begin());
}

void QueryCache::Clear() {
  // Destroyed after the unlock, as in Insert.
  std::list<Entry> dropped;
  MutexLock lock(&mu_);
  index_.clear();
  dropped.swap(lru_);
}

QueryCache::Counters QueryCache::counters() const {
  MutexLock lock(&mu_);
  return counters_;
}

size_t QueryCache::size() const {
  MutexLock lock(&mu_);
  return lru_.size();
}

}  // namespace ver
