#include "pager/snapshot_map.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#define VER_PAGER_POSIX 1
#endif

namespace ver {

Result<std::unique_ptr<SnapshotMap>> SnapshotMap::Open(
    const std::string& path) {
#if defined(VER_PAGER_POSIX)
  int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open snapshot " + path + " for mapping");
  }
  struct stat st;
  if (fstat(fd, &st) != 0 || st.st_size < 0) {
    close(fd);
    return Status::IOError("cannot stat snapshot " + path);
  }
  uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size == 0) {
    close(fd);
    return Status::InvalidArgument(path + " is empty, not a Ver snapshot");
  }
  void* map = mmap(nullptr, static_cast<size_t>(size), PROT_READ,
                   MAP_PRIVATE, fd, 0);
  // The mapping pins the inode; the descriptor is no longer needed.
  close(fd);
  if (map == MAP_FAILED) {
    return Status::IOError("cannot mmap snapshot " + path);
  }
  // Paged serving touches scattered frames, not a sequential scan; without
  // this the kernel's readahead would fault in pages nobody asked for and
  // distort the residency the pool accounts.
  (void)madvise(map, static_cast<size_t>(size), MADV_RANDOM);

  auto out = std::unique_ptr<SnapshotMap>(new SnapshotMap());
  out->path_ = path;
  out->data_ = static_cast<const char*>(map);
  out->size_ = size;
  Status parsed = ParseSnapshotLayout(
      std::string_view(out->data_, static_cast<size_t>(size)), path,
      &out->sections_);
  if (!parsed.ok()) return parsed;  // dtor unmaps
  return out;
#else
  return Status::NotImplemented("snapshot mmap is not supported on this "
                                "platform; serve resident instead");
#endif
}

SnapshotMap::~SnapshotMap() {
#if defined(VER_PAGER_POSIX)
  if (data_ != nullptr) {
    munmap(const_cast<char*>(data_), static_cast<size_t>(size_));
  }
#endif
}

const SnapshotSectionEntry* SnapshotMap::FindSection(uint32_t id) const {
  for (const SnapshotSectionEntry& e : sections_) {
    if (e.id == id) return &e;
  }
  return nullptr;
}

}  // namespace ver
