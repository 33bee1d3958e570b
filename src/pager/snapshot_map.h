// SnapshotMap: RAII read-only mmap of a snapshot file plus its parsed
// section layout.
//
// Opening a map reads only the snapshot header (magic, version, section
// table) — payload bytes stay untouched on disk until something faults
// them in, which is what makes a paged cold start O(touched pages) instead
// of O(snapshot bytes). Section checksums are deliberately NOT verified
// (that would read the whole file); the paged trust model is
// "framing-validated, content bounds-guarded at query time". The resident
// loader (ReadSnapshotFile) is the checksum-verifying path.

#ifndef VER_PAGER_SNAPSHOT_MAP_H_
#define VER_PAGER_SNAPSHOT_MAP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/serde.h"

namespace ver {

class SnapshotMap {
 public:
  /// Maps `path` read-only (PROT_READ, MAP_PRIVATE, advised for random
  /// access) and parses its section layout. Fails on non-POSIX builds, on
  /// I/O errors, and on malformed headers or a format version other than
  /// kSnapshotFormatVersion.
  static Result<std::unique_ptr<SnapshotMap>> Open(const std::string& path);

  ~SnapshotMap();
  SnapshotMap(const SnapshotMap&) = delete;
  SnapshotMap& operator=(const SnapshotMap&) = delete;

  const std::string& path() const { return path_; }
  const char* data() const { return data_; }
  uint64_t size() const { return size_; }

  const std::vector<SnapshotSectionEntry>& sections() const {
    return sections_;
  }
  /// First section with `id`, or nullptr.
  const SnapshotSectionEntry* FindSection(uint32_t id) const;
  /// The mapped payload bytes of a section; valid while the map lives.
  std::string_view section_payload(const SnapshotSectionEntry& e) const {
    return std::string_view(data_ + e.offset, static_cast<size_t>(e.size));
  }

 private:
  SnapshotMap() = default;

  std::string path_;
  const char* data_ = nullptr;
  uint64_t size_ = 0;
  std::vector<SnapshotSectionEntry> sections_;
};

}  // namespace ver

#endif  // VER_PAGER_SNAPSHOT_MAP_H_
