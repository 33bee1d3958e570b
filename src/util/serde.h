// Checked binary serialization for persistent discovery snapshots.
//
// A snapshot file is a magic number, a format version, and a table of
// tagged sections, each protected by its own checksum. There is one format
// (kSnapshotFormatVersion): files of any other version are rejected, not
// migrated. Readers are bounds-checked and return Status on truncation or
// corruption — a damaged snapshot must produce a descriptive error, never
// a crash or an over-allocation.
//
// Snapshots are little-endian, and so must be the host: bulk arrays are
// the in-memory bytes of their elements, written with one append and
// loaded with one memcpy or, paged, borrowed straight out of the mapped
// file. Bulk arrays go through one codec, PagedView<T>::SaveTo/LoadFrom
// (pager/paged_view.h), over the WriteArray / ReadArrayExtent and
// WriteString / ReadStringExtent primitives below; ReadVector is the
// owned-vector form of the same framing.

#ifndef VER_UTIL_SERDE_H_
#define VER_UTIL_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/check.h"
#include "util/status.h"

namespace ver {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "snapshot arrays are the host's element bytes and the wire "
              "format is little-endian: Ver needs a little-endian host");

/// Array payloads inside snapshot sections start on this boundary (both
/// relative to the section payload and absolute in the file, because
/// section payloads themselves start on it). 64 covers every SIMD kernel's
/// widest load and one x86 cache line.
inline constexpr size_t kSnapshotArrayAlignment = 64;

/// Appends fixed-width little-endian primitives to an in-memory buffer.
/// Writing cannot fail; errors surface when the buffer is flushed to disk.
class SerdeWriter {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  /// IEEE-754 bit pattern, so doubles round-trip exactly.
  void WriteDouble(double v);
  /// u64 byte length followed by the raw bytes. Never aligned — byte blobs
  /// have no element type to misalign (paged loaders adopt them at any
  /// offset), and padding every small string (names, keys) would bloat
  /// snapshots for nothing.
  void WriteString(std::string_view s);

  /// One bulk typed array: AlignForArray() padding, a u64 element count,
  /// then the elements' bytes, so the element data lands on
  /// kSnapshotArrayAlignment.
  template <typename T>
  void WriteArray(const T* p, size_t n) {
    static_assert(std::is_arithmetic_v<T>, "bulk arrays hold numbers");
    AlignForArray();
    WriteU64(n);
    buf_.append(reinterpret_cast<const char*>(p), n * sizeof(T));
  }
  template <typename T>
  void WriteArray(const std::vector<T>& v) {
    WriteArray(v.data(), v.size());
  }

  size_t pos() const { return buf_.size(); }
  const std::string& buffer() const { return buf_; }
  std::string TakeBuffer() { return std::move(buf_); }

 private:
  /// Pads with zeros so the *data* of the next bulk array (which starts 8
  /// bytes later, after the u64 count prefix) lands on
  /// kSnapshotArrayAlignment. The pad length is a pure function of the
  /// current position, so a reader tracking the same position recomputes
  /// it without any marker byte.
  void AlignForArray();

  std::string buf_;
};

/// Bounds-checked little-endian reader over one in-memory payload. Every
/// Read returns IOError naming `context` when the payload is too short;
/// length prefixes are validated against the remaining bytes before any
/// allocation happens.
class SerdeReader {
 public:
  SerdeReader(std::string_view data, std::string context)
      : data_(data), context_(std::move(context)) {}

  Status ReadU8(uint8_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadI32(int32_t* out);
  Status ReadI64(int64_t* out);
  Status ReadBool(bool* out);
  Status ReadDouble(double* out);
  Status ReadString(std::string* out);
  /// Zero-copy ReadString: exposes the string's bytes inside the reader's
  /// underlying buffer instead of copying. Same lifetime contract as
  /// ReadArrayExtent. Never preceded by alignment padding (mirrors
  /// WriteString).
  Status ReadStringExtent(const char* what, const char** data_out,
                          uint64_t* len_out);

  /// Reads one WriteArray: skips the alignment padding, reads the u64
  /// count, bounds-checks `count * elem_width` payload bytes, exposes a
  /// pointer to them *inside the reader's underlying buffer* and skips
  /// past. The view lives exactly as long as the buffer the reader was
  /// constructed over — paged loaders hand readers a view of an mmapped
  /// section and keep the map alive, resident loaders must copy instead.
  Status ReadArrayExtent(size_t elem_width, const char* what,
                         const char** data_out, uint64_t* count_out);

  /// Reads one WriteArray into an owned vector (one bounds check, one
  /// memcpy; the count is checked before anything is allocated).
  template <typename T>
  Status ReadVector(std::vector<T>* out) {
    static_assert(std::is_arithmetic_v<T>, "bulk arrays hold numbers");
    const char* raw = nullptr;
    uint64_t n = 0;
    VER_RETURN_IF_ERROR(ReadArrayExtent(sizeof(T), "array", &raw, &n));
    out->resize(static_cast<size_t>(n));
    if (n > 0) {
      std::memcpy(out->data(), raw, static_cast<size_t>(n) * sizeof(T));
    }
    return Status::OK();
  }

  size_t pos() const { return pos_; }

  size_t remaining() const {
    // Every Read advances pos_ only after a successful bounds check, so the
    // cursor can never pass the end — the subtraction cannot wrap.
    VER_DCHECK(pos_ <= data_.size())
        << "reader cursor " << pos_ << " past payload of " << data_.size();
    return data_.size() - pos_;
  }
  /// Error when payload bytes are left over (format drift guard).
  Status ExpectEnd() const;

  /// Overflow-safe guard for element counts before resize/allocate: fails
  /// unless `count` elements of at least `elem_width` bytes each could
  /// still fit in the remaining payload. Callers sizing containers from a
  /// file-supplied count must run it first, so a corrupt count errors out
  /// instead of triggering a huge allocation.
  Status CheckCount(uint64_t count, size_t elem_width, const char* what);

 private:
  Status Need(size_t n, const char* what);
  /// Skips the zero padding AlignForArray() emitted, mirroring its position
  /// arithmetic.
  Status SkipArrayPadding();

  std::string_view data_;
  size_t pos_ = 0;
  std::string context_;
};

/// One tagged section of a snapshot file.
struct SnapshotSection {
  uint32_t id = 0;
  std::string payload;
};

/// Location of one section inside a snapshot file — the parsed form of a
/// section-table entry.
struct SnapshotSectionEntry {
  uint32_t id = 0;
  uint64_t offset = 0;  // absolute file offset of the payload
  uint64_t size = 0;    // payload bytes
  uint64_t checksum = 0;
};

/// The one snapshot format this build reads and writes; see
/// docs/ARCHITECTURE.md ("Persistence & snapshot lifecycle") for the
/// layout and the version-bump policy. Readers accept exactly this version:
/// a file written in any other format is rejected with an error naming its
/// version, and `ver_cli build-index` rewrites it. v5 is the section-table
/// layout ({id, offset, size, checksum} per section, payloads and bulk
/// arrays on 64-byte file offsets) with sections 1-7.
inline constexpr uint32_t kSnapshotFormatVersion = 5;

/// Parses a snapshot's header out of `data` (the full file bytes) without
/// copying or checksumming any payload: magic, version and the section
/// table. The shared front half of ReadSnapshotFile and the pager's
/// SnapshotMap.
Status ParseSnapshotLayout(std::string_view data, const std::string& name,
                           std::vector<SnapshotSectionEntry>* entries);

/// Writes `sections` as a snapshot file: magic, format version, section
/// count, section table, then each payload zero-padded to a 64-byte-aligned
/// offset. The file is written to `path + ".tmp"` and renamed into place,
/// so a concurrent reader never observes a half-written snapshot.
Status WriteSnapshotFile(const std::string& path,
                         const std::vector<SnapshotSection>& sections);

/// Reads a snapshot file and validates magic, format version, section
/// framing and every per-section checksum. On any mismatch returns a
/// descriptive IOError/InvalidArgument and leaves `sections` untouched.
Status ReadSnapshotFile(const std::string& path,
                        std::vector<SnapshotSection>* sections);

/// Checksum used for snapshot section payloads (word-at-a-time mixing).
/// Exposed so tests and the pager's optional verification can recompute it.
uint64_t SnapshotSectionChecksum(std::string_view payload);

}  // namespace ver

#endif  // VER_UTIL_SERDE_H_
