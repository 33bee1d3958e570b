#include "util/serde.h"

#include <cstdio>
#include <cstring>

#include "util/hash.h"

namespace ver {

namespace {

// 8-byte magic at offset 0 of every snapshot file.
constexpr char kMagic[8] = {'V', 'E', 'R', 'S', 'N', 'A', 'P', '\0'};

// One section-table entry: u32 id, u64 offset, u64 size, u64 checksum.
constexpr size_t kSectionEntryBytes = 4 + 8 + 8 + 8;

void AppendLE(std::string* buf, uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    buf->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint64_t ParseLE(const char* p, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

// Word-at-a-time mixing checksum. Snapshot sections run to megabytes and
// are checksummed on every cold start, so byte-wise FNV (~2ns/byte) would
// dominate load time; mixing 8 bytes per step keeps validation ~10x
// cheaper while still catching any flipped or dropped byte.
uint64_t SectionChecksum(std::string_view payload) {
  const char* p = payload.data();
  size_t n = payload.size();
  uint64_t h = 0x5345435455555243ULL ^ n;
  // ParseLE compiles to a plain 8-byte load.
  while (n >= 8) {
    h = Mix64(h ^ ParseLE(p, 8));
    p += 8;
    n -= 8;
  }
  if (n > 0) h = Mix64(h ^ ParseLE(p, static_cast<int>(n)));
  return Mix64(h);
}

// Zero bytes needed after position `pos` so the data of the next array
// (which starts 8 bytes later, after its u64 count prefix) is aligned.
size_t ArrayPadAt(size_t pos) {
  return (kSnapshotArrayAlignment - ((pos + 8) % kSnapshotArrayAlignment)) %
         kSnapshotArrayAlignment;
}

}  // namespace

uint64_t SnapshotSectionChecksum(std::string_view payload) {
  return SectionChecksum(payload);
}

void SerdeWriter::WriteU32(uint32_t v) { AppendLE(&buf_, v, 4); }
void SerdeWriter::WriteU64(uint64_t v) { AppendLE(&buf_, v, 8); }

void SerdeWriter::AlignForArray() {
  buf_.append(ArrayPadAt(buf_.size()), '\0');
}

void SerdeWriter::WriteDouble(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void SerdeWriter::WriteString(std::string_view s) {
  WriteU64(s.size());
  buf_.append(s.data(), s.size());
}

Status SerdeReader::Need(size_t n, const char* what) {
  if (remaining() < n) {
    return Status::IOError("truncated " + context_ + ": need " +
                           std::to_string(n) + " bytes for " + what +
                           ", have " + std::to_string(remaining()));
  }
  return Status::OK();
}

Status SerdeReader::ReadU8(uint8_t* out) {
  VER_RETURN_IF_ERROR(Need(1, "u8"));
  *out = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status SerdeReader::ReadU32(uint32_t* out) {
  VER_RETURN_IF_ERROR(Need(4, "u32"));
  *out = static_cast<uint32_t>(ParseLE(data_.data() + pos_, 4));
  pos_ += 4;
  return Status::OK();
}

Status SerdeReader::ReadU64(uint64_t* out) {
  VER_RETURN_IF_ERROR(Need(8, "u64"));
  *out = ParseLE(data_.data() + pos_, 8);
  pos_ += 8;
  return Status::OK();
}

Status SerdeReader::ReadI32(int32_t* out) {
  uint32_t v = 0;
  VER_RETURN_IF_ERROR(ReadU32(&v));
  *out = static_cast<int32_t>(v);
  return Status::OK();
}

Status SerdeReader::ReadI64(int64_t* out) {
  uint64_t v = 0;
  VER_RETURN_IF_ERROR(ReadU64(&v));
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status SerdeReader::ReadBool(bool* out) {
  uint8_t v = 0;
  VER_RETURN_IF_ERROR(ReadU8(&v));
  *out = v != 0;
  return Status::OK();
}

Status SerdeReader::ReadDouble(double* out) {
  uint64_t bits = 0;
  VER_RETURN_IF_ERROR(ReadU64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

Status SerdeReader::ReadString(std::string* out) {
  uint64_t len;
  VER_RETURN_IF_ERROR(ReadU64(&len));
  VER_RETURN_IF_ERROR(Need(static_cast<size_t>(len), "string bytes"));
  out->assign(data_.data() + pos_, static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return Status::OK();
}

Status SerdeReader::CheckCount(uint64_t count, size_t elem_width,
                               const char* what) {
  VER_DCHECK(elem_width > 0) << "zero element width for " << what;
  // Divide instead of multiplying: count * width could wrap size_t for a
  // crafted count, sneaking a huge resize() past the bounds check.
  if (count > remaining() / elem_width) {
    return Status::IOError("truncated " + context_ + ": " + what +
                           " claims " + std::to_string(count) +
                           " elements, only " + std::to_string(remaining()) +
                           " bytes remain");
  }
  return Status::OK();
}

Status SerdeReader::ReadStringExtent(const char* what, const char** data_out,
                                     uint64_t* len_out) {
  uint64_t len;
  VER_RETURN_IF_ERROR(ReadU64(&len));
  VER_RETURN_IF_ERROR(Need(static_cast<size_t>(len), what));
  *data_out = data_.data() + pos_;
  *len_out = len;
  pos_ += static_cast<size_t>(len);
  return Status::OK();
}

Status SerdeReader::ReadArrayExtent(size_t elem_width, const char* what,
                                    const char** data_out,
                                    uint64_t* count_out) {
  VER_RETURN_IF_ERROR(SkipArrayPadding());
  uint64_t count;
  VER_RETURN_IF_ERROR(ReadU64(&count));
  VER_RETURN_IF_ERROR(CheckCount(count, elem_width, what));
  *data_out = data_.data() + pos_;
  *count_out = count;
  pos_ += static_cast<size_t>(count) * elem_width;
  return Status::OK();
}

Status SerdeReader::SkipArrayPadding() {
  size_t pad = ArrayPadAt(pos_);
  VER_RETURN_IF_ERROR(Need(pad, "array alignment padding"));
  pos_ += pad;
  return Status::OK();
}

Status SerdeReader::ExpectEnd() const {
  if (remaining() != 0) {
    return Status::IOError(context_ + " has " + std::to_string(remaining()) +
                           " unexpected trailing bytes");
  }
  return Status::OK();
}

Status WriteSnapshotFile(const std::string& path,
                         const std::vector<SnapshotSection>& sections) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendLE(&out, kSnapshotFormatVersion, 4);
  AppendLE(&out, sections.size(), 4);
  // Up-front section table, payloads at 64-byte-aligned offsets. Offsets
  // are computable before any payload is emitted: table end, then each
  // payload aligned up from the previous end.
  uint64_t offset = out.size() + sections.size() * kSectionEntryBytes;
  for (const SnapshotSection& s : sections) {
    offset = (offset + kSnapshotArrayAlignment - 1) /
             kSnapshotArrayAlignment * kSnapshotArrayAlignment;
    AppendLE(&out, s.id, 4);
    AppendLE(&out, offset, 8);
    AppendLE(&out, s.payload.size(), 8);
    AppendLE(&out, SectionChecksum(s.payload), 8);
    offset += s.payload.size();
  }
  for (const SnapshotSection& s : sections) {
    size_t aligned = (out.size() + kSnapshotArrayAlignment - 1) /
                     kSnapshotArrayAlignment * kSnapshotArrayAlignment;
    out.append(aligned - out.size(), '\0');
    out.append(s.payload);
  }

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + tmp + " for writing");
  }
  size_t written = std::fwrite(out.data(), 1, out.size(), f);
  bool flushed = std::fclose(f) == 0;
  if (written != out.size() || !flushed) {
    std::remove(tmp.c_str());
    return Status::IOError("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Status ParseSnapshotLayout(std::string_view data, const std::string& name,
                           std::vector<SnapshotSectionEntry>* entries) {
  SerdeReader r(data, "snapshot header of " + name);
  if (data.size() < sizeof(kMagic) ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(name + " is not a Ver snapshot (bad magic)");
  }
  for (size_t i = 0; i < sizeof(kMagic); ++i) {
    uint8_t ignored;
    VER_RETURN_IF_ERROR(r.ReadU8(&ignored));
  }
  uint32_t version, section_count;
  VER_RETURN_IF_ERROR(r.ReadU32(&version));
  if (version != kSnapshotFormatVersion) {
    return Status::InvalidArgument(
        name + " uses snapshot format version " + std::to_string(version) +
        "; this build reads only version " +
        std::to_string(kSnapshotFormatVersion) +
        " (rebuild the index with ver_cli build-index)");
  }
  VER_RETURN_IF_ERROR(r.ReadU32(&section_count));

  // Section table only — payload bytes are never touched here, which is
  // what makes a paged open O(header), not O(file).
  if (static_cast<uint64_t>(section_count) * kSectionEntryBytes >
      r.remaining()) {
    return Status::IOError("truncated snapshot " + name +
                           ": section table cut short");
  }
  std::vector<SnapshotSectionEntry> parsed;
  parsed.reserve(section_count);
  uint64_t prev_end = 16 + uint64_t{section_count} * kSectionEntryBytes;
  for (uint32_t i = 0; i < section_count; ++i) {
    SnapshotSectionEntry e;
    VER_RETURN_IF_ERROR(r.ReadU32(&e.id));
    VER_RETURN_IF_ERROR(r.ReadU64(&e.offset));
    VER_RETURN_IF_ERROR(r.ReadU64(&e.size));
    VER_RETURN_IF_ERROR(r.ReadU64(&e.checksum));
    // Offsets must be aligned, ascending and inside the file — a corrupt
    // table must not produce out-of-range views downstream.
    if (e.offset % kSnapshotArrayAlignment != 0 || e.offset < prev_end ||
        e.offset > data.size() || e.size > data.size() - e.offset) {
      return Status::IOError("corrupt snapshot " + name + ": section " +
                             std::to_string(e.id) +
                             " has an invalid table entry");
    }
    prev_end = e.offset + e.size;
    parsed.push_back(e);
  }
  if (prev_end != data.size()) {
    return Status::IOError("snapshot " + name + " has " +
                           std::to_string(data.size() - prev_end) +
                           " unexpected trailing bytes");
  }
  *entries = std::move(parsed);
  return Status::OK();
}

Status ReadSnapshotFile(const std::string& path,
                        std::vector<SnapshotSection>* sections) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open snapshot " + path);
  }
  // Pre-size the buffer from the file length (one read, no regrow copies);
  // fall back to chunked growth if the size probe fails.
  std::string data;
  if (std::fseek(f, 0, SEEK_END) == 0) {
    long size = std::ftell(f);
    if (size > 0) data.reserve(static_cast<size_t>(size));
    std::rewind(f);
  }
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    data.append(chunk, n);
  }
  bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IOError("cannot read snapshot " + path);
  }

  std::vector<SnapshotSectionEntry> entries;
  VER_RETURN_IF_ERROR(ParseSnapshotLayout(data, path, &entries));
  std::vector<SnapshotSection> parsed;
  parsed.reserve(entries.size());
  for (const SnapshotSectionEntry& e : entries) {
    SnapshotSection s;
    s.id = e.id;
    s.payload.assign(data.data() + e.offset, static_cast<size_t>(e.size));
    if (e.checksum != SectionChecksum(s.payload)) {
      return Status::IOError("snapshot " + path + " is corrupt: section " +
                             std::to_string(s.id) + " checksum mismatch");
    }
    parsed.push_back(std::move(s));
  }
  *sections = std::move(parsed);
  return Status::OK();
}

}  // namespace ver
