#include "pager/pager.h"

#include <utility>

namespace ver {

Result<std::shared_ptr<PagerRuntime>> PagerRuntime::Open(
    const std::string& path, const PagingOptions& options) {
  auto mapped = SnapshotMap::Open(path);
  if (!mapped.ok()) return mapped.status();
  std::unique_ptr<SnapshotMap> map = std::move(mapped).value();
  std::shared_ptr<BufferPool> pool = options.pool;
  if (pool == nullptr) {
    BufferPoolOptions po;
    po.memory_budget_bytes = options.memory_budget_bytes;
    po.frame_bytes = options.frame_bytes;
    pool = std::make_shared<BufferPool>(po);
  }
  uint32_t space = pool->RegisterSpace(map->data(), map->size(),
                                       /*evictable=*/true);
  return std::shared_ptr<PagerRuntime>(
      new PagerRuntime(std::move(pool), std::move(map), space));
}

PagerRuntime::~PagerRuntime() {
  // Every borrower is gone (they hold shared_ptrs to this runtime), so no
  // pins against the space remain and retirement drops all its frames.
  pool_->RetireSpace(space_);
}

}  // namespace ver
