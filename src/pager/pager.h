// PagerRuntime: the per-snapshot bundle that makes paged serving work —
// one SnapshotMap (the mmapped file), one BufferPool space registered over
// it, and the PagerBinding loaders use to adopt mapped extents.
//
// Lifetime is the whole story here. A paged engine borrows every large
// array straight out of the map, so the runtime must outlive every query
// that might still be scanning those arrays. The engine owns its runtime
// through a shared_ptr; hot-swap (VerServer::SwapSnapshot) retires the old
// engine by dropping the server's reference while in-flight queries keep
// theirs — the old map stays intact until the last query drains, then the
// runtime's destructor retires the space (releasing its frames' budget
// charge) and unmaps the file. A pool can be shared across runtimes
// (ServingOptions hands one budget to old and new snapshots during a swap)
// or private per runtime.

#ifndef VER_PAGER_PAGER_H_
#define VER_PAGER_PAGER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "pager/buffer_pool.h"
#include "pager/paged_view.h"
#include "pager/snapshot_map.h"
#include "util/result.h"

namespace ver {

/// Switches snapshot loading from "copy everything into owned vectors" to
/// "mmap the file and borrow". Off by default: resident loads validate
/// more and never fault mid-query, so paging is an explicit opt-in for
/// repositories that outgrow RAM.
struct PagingOptions {
  bool enabled = false;
  /// Ceiling for pool-charged resident bytes across all spaces.
  uint64_t memory_budget_bytes = 256ull << 20;
  /// BufferPool frame granularity; multiple of the 4 KiB OS page.
  uint64_t frame_bytes = 64 * 1024;
  /// When set, the runtime charges this pool instead of creating its own —
  /// how a server keeps one budget across a hot swap's snapshot pair.
  std::shared_ptr<BufferPool> pool;
};

class PagerRuntime {
 public:
  /// Maps `path` and registers it with the pool. Fails with NotImplemented
  /// only on a platform without mmap, which the caller should answer with
  /// a resident load. Real I/O and parse errors (a wrong format version
  /// among them) come back as their own codes and should propagate.
  static Result<std::shared_ptr<PagerRuntime>> Open(
      const std::string& path, const PagingOptions& options);

  ~PagerRuntime();
  PagerRuntime(const PagerRuntime&) = delete;
  PagerRuntime& operator=(const PagerRuntime&) = delete;

  const SnapshotMap& map() const { return *map_; }
  const std::shared_ptr<BufferPool>& pool() const { return pool_; }
  uint32_t space() const { return space_; }
  const std::string& path() const { return map_->path(); }

  /// The binding loaders thread through LoadFrom calls.
  PagerBinding binding() const {
    PagerBinding b;
    b.pool = pool_.get();
    b.space = space_;
    b.space_base = map_->data();
    return b;
  }

  BufferPoolStats pool_stats() const { return pool_->stats(); }

 private:
  PagerRuntime(std::shared_ptr<BufferPool> pool,
               std::unique_ptr<SnapshotMap> map, uint32_t space)
      : pool_(std::move(pool)), map_(std::move(map)), space_(space) {}

  std::shared_ptr<BufferPool> pool_;
  std::unique_ptr<SnapshotMap> map_;
  uint32_t space_ = 0;
};

}  // namespace ver

#endif  // VER_PAGER_PAGER_H_
