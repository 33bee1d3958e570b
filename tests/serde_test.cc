// Negative-path tests for the bounds-checked snapshot reader: every
// truncation, corrupt length prefix, and leftover-bytes case must surface
// as a descriptive Status, never a crash or an over-allocation. CI runs
// this suite under AddressSanitizer, so any out-of-bounds read the guards
// miss becomes a hard failure here.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

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
  w.WriteU64Vector({1, 2, 3});
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
    ASSERT_TRUE(r.ReadU64Vector(&v).ok());
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
    if (st.ok()) st = r.ReadU64Vector(&v);
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
  EXPECT_TRUE(r.ReadU64Vector(&v).IsIOError());
  EXPECT_TRUE(v.empty());
}

TEST(SerdeReaderTest, CheckCountAcceptsExactFit) {
  SerdeWriter w;
  w.WriteU32Vector({10, 20, 30});
  SerdeReader r(w.buffer(), "exact fit");
  std::vector<uint32_t> v;
  ASSERT_TRUE(r.ReadU32Vector(&v).ok());
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
