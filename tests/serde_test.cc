// Tests for the bounds-checked snapshot reader and the one array codec
// (PagedView<T>::SaveTo / LoadFrom): every element type a snapshot stores
// round-trips owned and borrowed, arrays land on 64-byte offsets, blobs
// stay unpadded, and every truncation, corrupt length prefix, and
// leftover-bytes case surfaces as a descriptive Status, never a crash or
// an over-allocation. CI runs this suite under AddressSanitizer, so any
// out-of-bounds read the guards miss becomes a hard failure here.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "page_aligned_bytes.h"
#include "pager/buffer_pool.h"
#include "pager/paged_view.h"
#include "util/serde.h"

namespace ver {
namespace {

// ------------------------- primitive truncation --------------------------

TEST(SerdeReaderTest, EmptyPayloadFailsEveryPrimitive) {
  SerdeReader r("", "empty payload");
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  bool b;
  double d;
  std::string s;
  // A failed read never advances the cursor, so one reader covers all.
  EXPECT_TRUE(r.ReadU8(&u8).IsIOError());
  EXPECT_TRUE(r.ReadU32(&u32).IsIOError());
  EXPECT_TRUE(r.ReadU64(&u64).IsIOError());
  EXPECT_TRUE(r.ReadI32(&i32).IsIOError());
  EXPECT_TRUE(r.ReadI64(&i64).IsIOError());
  EXPECT_TRUE(r.ReadBool(&b).IsIOError());
  EXPECT_TRUE(r.ReadDouble(&d).IsIOError());
  EXPECT_TRUE(r.ReadString(&s).IsIOError());
}

TEST(SerdeReaderTest, TruncationErrorNamesContext) {
  SerdeReader r("abc", "similarity index");
  uint64_t v;
  Status st = r.ReadU64(&v);
  ASSERT_TRUE(st.IsIOError());
  EXPECT_NE(st.ToString().find("similarity index"), std::string::npos);
}

TEST(SerdeReaderTest, EveryPrefixOfAMixedPayloadErrorsCleanly) {
  SerdeWriter w;
  w.WriteU32(7);
  w.WriteString("hello");
  w.WriteDouble(2.5);
  w.WriteArray<uint64_t>({1, 2, 3});
  const std::string full = w.buffer();

  // The complete payload must parse.
  {
    SerdeReader r(full, "full");
    uint32_t a;
    std::string s;
    double d;
    std::vector<uint64_t> v;
    ASSERT_TRUE(r.ReadU32(&a).ok());
    ASSERT_TRUE(r.ReadString(&s).ok());
    ASSERT_TRUE(r.ReadDouble(&d).ok());
    ASSERT_TRUE(r.ReadVector(&v).ok());
    EXPECT_TRUE(r.ExpectEnd().ok());
    EXPECT_EQ(s, "hello");
    EXPECT_EQ(v.size(), 3u);
  }

  // Every strict prefix must fail with IOError at some read — and under
  // ASan, without touching memory past the buffer.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    SerdeReader r(std::string_view(full).substr(0, cut), "prefix");
    uint32_t a;
    std::string s;
    double d;
    std::vector<uint64_t> v;
    Status st = r.ReadU32(&a);
    if (st.ok()) st = r.ReadString(&s);
    if (st.ok()) st = r.ReadDouble(&d);
    if (st.ok()) st = r.ReadVector(&v);
    EXPECT_TRUE(st.IsIOError()) << "prefix of " << cut << " bytes parsed";
  }
}

// --------------------- hostile length prefixes ---------------------------

TEST(SerdeReaderTest, StringLengthPastEndRejectedWithoutAllocating) {
  SerdeWriter w;
  w.WriteU64(std::numeric_limits<uint64_t>::max());  // absurd byte length
  SerdeReader r(w.buffer(), "hostile string");
  std::string s;
  Status st = r.ReadString(&s);
  EXPECT_TRUE(st.IsIOError());
  EXPECT_TRUE(s.empty());
}

TEST(SerdeReaderTest, VectorCountOverflowRejected) {
  // count * 8 wraps uint64; CheckCount must divide, not multiply.
  SerdeWriter w;
  w.WriteU64(std::numeric_limits<uint64_t>::max() / 4);
  SerdeReader r(w.buffer(), "wrapping count");
  std::vector<uint64_t> v;
  EXPECT_TRUE(r.ReadVector(&v).IsIOError());
  EXPECT_TRUE(v.empty());
}

TEST(SerdeReaderTest, CheckCountAcceptsExactFit) {
  SerdeWriter w;
  w.WriteArray<uint32_t>({10, 20, 30});
  SerdeReader r(w.buffer(), "exact fit");
  std::vector<uint32_t> v;
  ASSERT_TRUE(r.ReadVector(&v).ok());
  EXPECT_EQ(v, (std::vector<uint32_t>{10, 20, 30}));
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(SerdeReaderTest, ExpectEndFlagsLeftoverBytes) {
  SerdeWriter w;
  w.WriteU32(1);
  w.WriteU32(2);
  SerdeReader r(w.buffer(), "drift");
  uint32_t v;
  ASSERT_TRUE(r.ReadU32(&v).ok());
  EXPECT_FALSE(r.ExpectEnd().ok());
}

// ------------------------------ array codec ------------------------------

// One array of every element type a snapshot stores, plus an empty array,
// saved after an odd leading byte and around an odd-length blob so that
// every array needs alignment padding.
struct CodecArrays {
  PagedView<uint8_t> u8;
  PagedView<uint32_t> u32;
  PagedView<int> i32;
  PagedView<int64_t> i64;
  PagedView<uint64_t> u64;
  PagedView<double> f64;
  PagedView<char> blob;
  PagedView<uint32_t> empty;

  static CodecArrays Sample() {
    CodecArrays a;
    a.u8 = std::vector<uint8_t>{1, 255, 0, 7, 9};
    a.u32 = std::vector<uint32_t>{0, 1, 0xdeadbeef};
    a.i32 = std::vector<int>{-1, 0, 7, std::numeric_limits<int>::min()};
    a.i64 = std::vector<int64_t>{-42, std::numeric_limits<int64_t>::max()};
    a.u64 = std::vector<uint64_t>{0x0123456789abcdefULL, 1};
    a.f64 = std::vector<double>{-1.5e-300, 0.0, -0.0,
                                std::numeric_limits<double>::infinity(), 3.25};
    a.blob = std::string("odd\0blob, 13", 13);
    return a;
  }

  // Visits the arrays in wire order.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    fn(u8, "u8");
    fn(blob, "blob");
    fn(u32, "u32");
    fn(i32, "i32");
    fn(empty, "empty");
    fn(i64, "i64");
    fn(u64, "u64");
    fn(f64, "f64");
  }

  std::string Save() {
    SerdeWriter w;
    w.WriteU8(0x5a);
    ForEach([&w](const auto& view, const char*) { view.SaveTo(&w); });
    return w.TakeBuffer();
  }

  // Loads every array in wire order; the first failure's status.
  Status Load(SerdeReader* r, bool borrow) {
    uint8_t lead = 0;
    Status st = r->ReadU8(&lead);
    ForEach([&](auto& view, const char* what) {
      if (st.ok()) st = view.LoadFrom(r, borrow, what);
    });
    return st;
  }
};

template <typename T>
bool SameBytes(const PagedView<T>& got, const PagedView<T>& want) {
  return got.size() == want.size() &&
         (want.empty() ||
          std::memcmp(got.data(), want.data(), want.size() * sizeof(T)) == 0);
}

// True when `view` reads `bytes` in place (borrowed) rather than a copy of
// them (owned).
template <typename T>
bool ReadsInPlace(const PagedView<T>& view, std::string_view bytes) {
  const auto at = reinterpret_cast<uintptr_t>(view.data());
  const auto base = reinterpret_cast<uintptr_t>(bytes.data());
  return at >= base && at <= base + bytes.size();
}

void ExpectSameArrays(const CodecArrays& got, const CodecArrays& want) {
  EXPECT_TRUE(SameBytes(got.u8, want.u8));
  EXPECT_TRUE(SameBytes(got.u32, want.u32));
  EXPECT_TRUE(SameBytes(got.i32, want.i32));
  EXPECT_TRUE(SameBytes(got.i64, want.i64));
  EXPECT_TRUE(SameBytes(got.u64, want.u64));
  EXPECT_TRUE(SameBytes(got.f64, want.f64));
  EXPECT_TRUE(SameBytes(got.blob, want.blob));
  EXPECT_TRUE(SameBytes(got.empty, want.empty));
}

TEST(ArrayCodecTest, OwnedLoadRoundTripsEveryElementType) {
  CodecArrays want = CodecArrays::Sample();
  const std::string bytes = want.Save();
  SerdeReader r(bytes, "owned payload");
  CodecArrays got;
  ASSERT_TRUE(got.Load(&r, /*borrow=*/false).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
  ExpectSameArrays(got, want);
  got.ForEach([&bytes](const auto& view, const char* what) {
    EXPECT_FALSE(ReadsInPlace(view, bytes)) << what;
  });
}

#if defined(__unix__) || defined(__APPLE__)
TEST(ArrayCodecTest, BorrowedLoadRoundTripsAndAlignsArrays) {
  CodecArrays want = CodecArrays::Sample();
  PageAlignedBytes mapped(want.Save());
  BufferPoolOptions options;
  options.frame_bytes = 4096;
  BufferPool pool(options);
  const uint32_t space = pool.RegisterSpace(mapped.base(), mapped.capacity(),
                                            /*evictable=*/false);
  const std::string_view bytes(mapped.base(), mapped.size());
  SerdeReader r(bytes, "mapped payload");
  CodecArrays got;
  ASSERT_TRUE(got.Load(&r, /*borrow=*/true).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
  ExpectSameArrays(got, want);
  got.ForEach([&](const auto& view, const char* what) {
    // Every array borrows the mapped bytes: no copy, and every element
    // lies inside the span the reader consumed.
    EXPECT_TRUE(ReadsInPlace(view, bytes)) << what;
    const size_t offset = static_cast<size_t>(
        reinterpret_cast<const char*>(view.data()) - mapped.base());
    EXPECT_LE(offset + view.size() * sizeof(view[0]), r.pos()) << what;
    if constexpr (!std::is_same_v<std::decay_t<decltype(view[0])>, char>) {
      EXPECT_EQ(offset % kSnapshotArrayAlignment, 0u) << what;
    }
  });
  {
    // So one pin of that span covers every borrowed array and faults each
    // of its frames once.
    PagePin pin(&pool);
    pin.PinRange(space, 0, r.pos());
    const BufferPoolStats stats = pool.stats();
    EXPECT_EQ(stats.hits, 0);
    EXPECT_EQ(stats.misses,
              static_cast<int64_t>((r.pos() + options.frame_bytes - 1) /
                                   options.frame_bytes));
  }
  got = CodecArrays();  // drop the borrows before the bytes go
  pool.RetireSpace(space);
}
#endif  // defined(__unix__) || defined(__APPLE__)

TEST(ArrayCodecTest, BlobsAreNotPadded) {
  // A blob is a u64 length and its bytes wherever the writer stands; an
  // array pads so its elements start on kSnapshotArrayAlignment.
  for (size_t lead = 0; lead < 3; ++lead) {
    SerdeWriter w;
    for (size_t i = 0; i < lead; ++i) w.WriteU8(0);
    const size_t blob_at = w.pos();
    PagedView<char> blob;
    blob = std::string("seven b");
    blob.SaveTo(&w);
    EXPECT_EQ(w.pos(), blob_at + 8 + 7);
    PagedView<uint64_t> array;
    array = std::vector<uint64_t>{5};
    array.SaveTo(&w);
    const size_t element_at = w.pos() - sizeof(uint64_t);
    EXPECT_EQ(element_at % kSnapshotArrayAlignment, 0u);
  }
}

TEST(ArrayCodecTest, EveryTruncationFailsWithIOError) {
  CodecArrays want = CodecArrays::Sample();
  const std::string bytes = want.Save();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    // An exact-size copy, so AddressSanitizer sees any read past the cut.
    const std::string prefix = bytes.substr(0, cut);
    SerdeReader r(prefix, "truncated payload");
    CodecArrays got;
    Status st = got.Load(&r, /*borrow=*/false);
    EXPECT_TRUE(st.IsIOError()) << "prefix of " << cut << " bytes: "
                                << st.ToString();
  }
}

// ------------------------- snapshot file framing -------------------------

class SnapshotFileTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteRaw(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string ReadRawFile() {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  std::string path_ = ::testing::TempDir() + "/serde_test_snapshot.bin";
};

TEST_F(SnapshotFileTest, BadMagicRejected) {
  WriteRaw("NOTASNAP garbage that is long enough to pass size checks");
  std::vector<SnapshotSection> sections;
  Status st = ReadSnapshotFile(path_, &sections);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(sections.empty());
}

TEST_F(SnapshotFileTest, FutureFormatVersionRejected) {
  ASSERT_TRUE(WriteSnapshotFile(path_, {{1, "payload"}}).ok());
  // Patch the header's version u32 (bytes 8-11, little-endian) to the next
  // format version; the section table and checksums stay valid.
  std::string bytes = ReadRawFile();
  const uint32_t future = kSnapshotFormatVersion + 1;
  for (int i = 0; i < 4; ++i) {
    bytes[static_cast<size_t>(8 + i)] =
        static_cast<char>((future >> (8 * i)) & 0xff);
  }
  WriteRaw(bytes);
  std::vector<SnapshotSection> sections;
  Status st = ReadSnapshotFile(path_, &sections);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("version " + std::to_string(future)),
            std::string::npos)
      << st.ToString();
  EXPECT_TRUE(sections.empty());
}

TEST_F(SnapshotFileTest, FlippedPayloadByteFailsChecksum) {
  ASSERT_TRUE(WriteSnapshotFile(path_, {{1, "some section payload"}}).ok());
  std::string bytes = ReadRawFile();
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-file
  WriteRaw(bytes);
  std::vector<SnapshotSection> sections;
  Status st = ReadSnapshotFile(path_, &sections);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(sections.empty());
}

TEST_F(SnapshotFileTest, EveryTruncationOfAValidFileRejected) {
  ASSERT_TRUE(
      WriteSnapshotFile(path_, {{1, "alpha"}, {2, "beta gamma"}}).ok());
  const std::string bytes = ReadRawFile();
  ASSERT_GT(bytes.size(), 0u);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteRaw(bytes.substr(0, cut));
    std::vector<SnapshotSection> sections;
    Status st = ReadSnapshotFile(path_, &sections);
    EXPECT_FALSE(st.ok()) << "file truncated to " << cut << " bytes parsed";
    EXPECT_TRUE(sections.empty());
  }
}

}  // namespace
}  // namespace ver
