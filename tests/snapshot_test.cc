// Persistent discovery snapshots: Save -> Load must reproduce the freshly
// built engine bit-identically (for serial and parallel builds alike), the
// snapshot bytes themselves must be deterministic, and every corruption
// mode — truncation, bad magic, any format version but the current one,
// flipped bytes — must come back as a descriptive Status with nothing
// constructed.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/ver.h"
#include "discovery/engine.h"
#include "query_fingerprint.h"
#include "serving/ver_server.h"
#include "util/serde.h"
#include "workload/noisy_query.h"
#include "workload/open_data_gen.h"

namespace ver {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

struct SnapshotFixture {
  GeneratedDataset dataset;
  std::vector<ExampleQuery> queries;

  SnapshotFixture() {
    OpenDataSpec spec;
    spec.num_tables = 30;
    spec.num_queries = 3;
    dataset = GenerateOpenDataLike(spec);
    for (size_t i = 0; i < dataset.queries.size(); ++i) {
      Result<ExampleQuery> q = MakeNoisyQuery(
          dataset.repo, dataset.queries[i], NoiseLevel::kZero, 3, 11 + i);
      if (q.ok()) queries.push_back(std::move(q).value());
    }
  }
};

SnapshotFixture& Fixture() {
  static SnapshotFixture* fixture = new SnapshotFixture();
  return *fixture;
}

TEST(SnapshotTest, RoundTripIsBitIdenticalForSerialAndParallelBuilds) {
  SnapshotFixture& f = Fixture();
  ASSERT_FALSE(f.queries.empty());

  DiscoveryOptions serial_opts;
  serial_opts.parallelism = 1;
  DiscoveryOptions parallel_opts;
  parallel_opts.parallelism = 8;
  auto serial = DiscoveryEngine::Build(f.dataset.repo, serial_opts);
  auto parallel = DiscoveryEngine::Build(f.dataset.repo, parallel_opts);

  std::string serial_path = TempPath("ver_snapshot_serial.versnap");
  std::string parallel_path = TempPath("ver_snapshot_parallel.versnap");
  ASSERT_TRUE(serial->Save(serial_path).ok());
  ASSERT_TRUE(parallel->Save(parallel_path).ok());

  // Snapshot bytes are deterministic: the parallel build differs from the
  // serial one only in the recorded parallelism knob.
  std::string serial_bytes = ReadFileBytes(serial_path);
  std::string parallel_bytes = ReadFileBytes(parallel_path);
  ASSERT_EQ(serial_bytes.size(), parallel_bytes.size());
  size_t diff_bytes = 0;
  for (size_t i = 0; i < serial_bytes.size(); ++i) {
    if (serial_bytes[i] != parallel_bytes[i]) ++diff_bytes;
  }
  // parallelism (u32 LE) differs in 1 byte; its section checksum in <= 8.
  EXPECT_LE(diff_bytes, 9u);

  for (const std::string& path : {serial_path, parallel_path}) {
    Result<std::unique_ptr<DiscoveryEngine>> loaded =
        DiscoveryEngine::Load(f.dataset.repo, path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value()->num_joinable_column_pairs(),
              serial->num_joinable_column_pairs());
    EXPECT_EQ(loaded.value()->keyword_index().vocabulary_size(),
              serial->keyword_index().vocabulary_size());
    EXPECT_EQ(loaded.value()->profiles().size(), serial->profiles().size());

    // Full QBE pipeline: built vs loaded engine, bit-identical results.
    VerConfig config;
    Ver fresh(&f.dataset.repo, config);
    Ver restored(&f.dataset.repo, config, std::move(loaded).value());
    for (const ExampleQuery& q : f.queries) {
      EXPECT_EQ(Fingerprint(fresh.RunQuery(q)),
                Fingerprint(restored.RunQuery(q)));
    }
  }
  std::remove(serial_path.c_str());
  std::remove(parallel_path.c_str());
}

TEST(SnapshotTest, LoadedEngineAnswersDiscoveryFunctionsIdentically) {
  SnapshotFixture& f = Fixture();
  auto built = DiscoveryEngine::Build(f.dataset.repo);
  std::string path = TempPath("ver_snapshot_functions.versnap");
  ASSERT_TRUE(built->Save(path).ok());
  Result<std::unique_ptr<DiscoveryEngine>> loaded =
      DiscoveryEngine::Load(f.dataset.repo, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Appendix A functions answer identically, element order included.
  const DiscoveryEngine& restored = *loaded.value();
  EXPECT_EQ(restored.num_joinable_column_pairs(),
            built->num_joinable_column_pairs());
  for (const ColumnRef& ref : f.dataset.repo.AllColumns()) {
    for (double threshold : {0.5, 0.8}) {
      EXPECT_EQ(built->Neighbors(ref, threshold),
                restored.Neighbors(ref, threshold))
          << ref.ToString() << " at " << threshold;
      EXPECT_EQ(built->SimilarColumns(ref, threshold),
                restored.SimilarColumns(ref, threshold))
          << ref.ToString() << " at " << threshold;
    }
  }
  // Keywords the repository contains (attribute names and example cells),
  // a near miss for the fuzzy path, and one that matches nothing.
  std::vector<std::string> keywords = {"incident", "no_such_keyword_anywhere"};
  for (size_t i = 0; i < built->profiles().size(); i += 7) {
    keywords.push_back(built->profiles()[i].attribute_name);
  }
  for (const ExampleQuery& q : f.queries) {
    for (const auto& column : q.columns) {
      if (!column.empty()) keywords.push_back(column.front());
    }
  }
  for (const std::string& keyword : keywords) {
    for (KeywordTarget target : {KeywordTarget::kValues,
                                 KeywordTarget::kAttributes,
                                 KeywordTarget::kAll}) {
      for (bool fuzzy : {false, true}) {
        std::vector<KeywordHit> ka =
            built->SearchKeyword(keyword, target, fuzzy);
        std::vector<KeywordHit> kb =
            restored.SearchKeyword(keyword, target, fuzzy);
        ASSERT_EQ(ka.size(), kb.size()) << keyword;
        for (size_t i = 0; i < ka.size(); ++i) {
          EXPECT_EQ(ka[i].column, kb[i].column) << keyword;
          EXPECT_EQ(ka[i].matched_attribute, kb[i].matched_attribute)
              << keyword;
          EXPECT_EQ(ka[i].match_count, kb[i].match_count) << keyword;
          EXPECT_EQ(ka[i].exact, kb[i].exact) << keyword;
        }
      }
    }
  }
  for (int32_t t = 0; t + 1 < f.dataset.repo.num_tables() && t < 6; ++t) {
    std::vector<JoinGraph> ga = built->GenerateJoinGraphs({t, t + 1}, 2);
    std::vector<JoinGraph> gb = loaded.value()->GenerateJoinGraphs({t, t + 1}, 2);
    ASSERT_EQ(ga.size(), gb.size());
    for (size_t i = 0; i < ga.size(); ++i) {
      EXPECT_EQ(ga[i].Signature(), gb[i].Signature());
      EXPECT_EQ(ga[i].score, gb[i].score);
    }
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, TruncatedFilesFailWithDescriptiveErrors) {
  SnapshotFixture& f = Fixture();
  auto built = DiscoveryEngine::Build(f.dataset.repo);
  std::string path = TempPath("ver_snapshot_truncate.versnap");
  ASSERT_TRUE(built->Save(path).ok());
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 64u);

  // Cut at several depths: inside the magic, inside the header, inside a
  // section header, inside a payload, and just before the last checksum.
  for (size_t cut : {size_t{3}, size_t{10}, size_t{18}, bytes.size() / 2,
                     bytes.size() - 4}) {
    std::string truncated_path = TempPath("ver_snapshot_truncated.versnap");
    WriteFileBytes(truncated_path, bytes.substr(0, cut));
    Result<std::unique_ptr<DiscoveryEngine>> loaded =
        DiscoveryEngine::Load(f.dataset.repo, truncated_path);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut;
    EXPECT_FALSE(loaded.status().message().empty());
    std::remove(truncated_path.c_str());
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, BadMagicWrongVersionAndFlippedBytesAreRejected) {
  SnapshotFixture& f = Fixture();
  auto built = DiscoveryEngine::Build(f.dataset.repo);
  std::string path = TempPath("ver_snapshot_corrupt.versnap");
  ASSERT_TRUE(built->Save(path).ok());
  std::string bytes = ReadFileBytes(path);

  auto load_variant = [&](std::string variant) {
    std::string variant_path = TempPath("ver_snapshot_variant.versnap");
    WriteFileBytes(variant_path, variant);
    Result<std::unique_ptr<DiscoveryEngine>> loaded =
        DiscoveryEngine::Load(f.dataset.repo, variant_path);
    std::remove(variant_path.c_str());
    EXPECT_FALSE(loaded.ok());
    return loaded.ok() ? std::string() : loaded.status().ToString();
  };

  // Bad magic.
  std::string bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_NE(load_variant(bad_magic).find("magic"), std::string::npos);

  // Readers accept exactly the current format: every earlier version and
  // the next one fail with an error naming the version found. Byte 8 is
  // the low byte of the version u32.
  ASSERT_EQ(kSnapshotFormatVersion, 5u);
  ASSERT_EQ(static_cast<uint32_t>(bytes[8]), kSnapshotFormatVersion);
  for (uint32_t version : {1u, 2u, 3u, 4u, 6u}) {
    std::string bad_version = bytes;
    bad_version[8] = static_cast<char>(version);
    std::string error = load_variant(bad_version);
    EXPECT_NE(error.find("version " + std::to_string(version)),
              std::string::npos)
        << error;
  }

  // A flipped byte anywhere in a section payload breaks that section's
  // checksum. Flip several spots across the file body.
  for (size_t offset : {size_t{40}, bytes.size() / 3, bytes.size() / 2,
                        bytes.size() - 12}) {
    std::string flipped = bytes;
    flipped[offset] ^= 0x20;
    std::string error = load_variant(flipped);
    EXPECT_FALSE(error.empty()) << "flip at " << offset;
  }

  // A corrupted (huge) section count in the unchecksummed header must
  // error out, not attempt a giant allocation.
  std::string huge_sections = bytes;
  huge_sections[15] = 0x7f;  // high byte of the section-count u32
  EXPECT_FALSE(load_variant(huge_sections).empty());

  // Nonexistent file.
  Result<std::unique_ptr<DiscoveryEngine>> missing =
      DiscoveryEngine::Load(f.dataset.repo, TempPath("ver_no_such.versnap"));
  EXPECT_TRUE(missing.status().IsIOError());
  std::remove(path.c_str());
}

TEST(SnapshotTest, OutOfRangePostingsAreRejected) {
  // A checksum-valid but crafted similarity section whose posting indexes
  // a nonexistent profile must be rejected at load, never dereferenced.
  SerdeWriter w;
  w.WriteI32(4);     // rows_per_band
  w.WriteU64(1);     // one column
  w.WriteBool(true);
  w.WriteArray<uint64_t>({42});  // value postings: one key...
  w.WriteArray<uint32_t>({0, 1});
  w.WriteArray<int>({7});        // ...whose posting points past profile 0
  w.WriteU64(0);                 // no bands
  std::vector<ColumnProfile> profiles(1);
  SimilarityIndex index;
  SerdeReader r(w.buffer(), "crafted similarity section");
  Status loaded = index.LoadFrom(&r, &profiles, SimilarityOptions());
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.IsIOError()) << loaded.ToString();
}

TEST(SnapshotTest, SnapshotOfDifferentRepositoryIsRejected) {
  SnapshotFixture& f = Fixture();
  auto built = DiscoveryEngine::Build(f.dataset.repo);
  std::string path = TempPath("ver_snapshot_other_repo.versnap");
  ASSERT_TRUE(built->Save(path).ok());

  OpenDataSpec spec;
  spec.num_tables = 12;  // a different repository
  spec.num_queries = 0;
  GeneratedDataset other = GenerateOpenDataLike(spec);
  Result<std::unique_ptr<DiscoveryEngine>> loaded =
      DiscoveryEngine::Load(other.repo, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsInvalidArgument())
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(SnapshotTest, SaveToUnwritablePathFails) {
  SnapshotFixture& f = Fixture();
  auto built = DiscoveryEngine::Build(f.dataset.repo);
  Status saved = built->Save("/nonexistent-dir/nested/engine.versnap");
  ASSERT_FALSE(saved.ok());
  EXPECT_TRUE(saved.IsIOError()) << saved.ToString();
}

TEST(SnapshotTest, SerdePrimitivesRoundTripAndBoundCheck) {
  SerdeWriter w;
  w.WriteU8(0xab);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteI64(-42);
  w.WriteBool(true);
  w.WriteDouble(-1.5e-300);
  w.WriteString("hello\0world");  // embedded NUL via string_view? no: literal
  w.WriteString(std::string("bin\0ary", 7));
  w.WriteArray<uint64_t>({1, 2, 3});
  w.WriteArray<int>({-1, 0, 7});

  SerdeReader r(w.buffer(), "test payload");
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  bool b;
  double d;
  std::string s1, s2;
  std::vector<uint64_t> v64;
  std::vector<int> v32;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadBool(&b).ok());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  ASSERT_TRUE(r.ReadString(&s1).ok());
  ASSERT_TRUE(r.ReadString(&s2).ok());
  ASSERT_TRUE(r.ReadVector(&v64).ok());
  ASSERT_TRUE(r.ReadVector(&v32).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(b);
  EXPECT_EQ(d, -1.5e-300);
  EXPECT_EQ(s1, "hello");  // literal stops at the embedded NUL
  EXPECT_EQ(s2, std::string("bin\0ary", 7));
  EXPECT_EQ(v64, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(v32, (std::vector<int>{-1, 0, 7}));
  EXPECT_TRUE(r.ExpectEnd().ok());

  // Reading past the end fails with a truncation error, not UB.
  EXPECT_TRUE(r.ReadU64(&u64).IsIOError());

  // A length prefix larger than the remaining bytes is rejected before any
  // allocation (hostile-length guard).
  SerdeWriter hostile;
  hostile.WriteU64(1ULL << 60);
  SerdeReader hr(hostile.buffer(), "hostile payload");
  std::string out;
  EXPECT_TRUE(hr.ReadString(&out).IsIOError());
  SerdeReader hr2(hostile.buffer(), "hostile payload");
  std::vector<uint64_t> vout;
  EXPECT_TRUE(hr2.ReadVector(&vout).IsIOError());

  // A count chosen so count * elem_width wraps size_t must still fail the
  // bounds check (overflow-safe division guard).
  SerdeWriter wrapping;
  wrapping.WriteU64(0x2000000000000001ULL);
  SerdeReader wr(wrapping.buffer(), "wrapping payload");
  std::vector<uint64_t> wv;
  EXPECT_TRUE(wr.ReadVector(&wv).IsIOError());
}

TEST(SnapshotTest, ServerStartsFromSnapshotWithoutRebuild) {
  SnapshotFixture& f = Fixture();
  ASSERT_FALSE(f.queries.empty());
  auto built = DiscoveryEngine::Build(f.dataset.repo);
  std::string path = TempPath("ver_snapshot_server.versnap");
  ASSERT_TRUE(built->Save(path).ok());

  Result<std::unique_ptr<DiscoveryEngine>> loaded =
      DiscoveryEngine::Load(f.dataset.repo, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  VerConfig config;
  Ver fresh(&f.dataset.repo, config);
  auto restored = std::make_shared<const Ver>(&f.dataset.repo, config,
                                              std::move(loaded).value());
  VerServer server(restored, ServingOptions());
  for (const ExampleQuery& q : f.queries) {
    ServedResult served = server.Serve(q);
    ASSERT_TRUE(served.status.ok());
    EXPECT_EQ(Fingerprint(*served.result), Fingerprint(fresh.RunQuery(q)));
  }
  std::remove(path.c_str());
}

// One store per index: a loaded engine holds exactly the stores Build()
// wrote, so saving it again reproduces the built engine's bytes, whether
// it was loaded resident or paged.
TEST(SnapshotTest, ResavedSnapshotIsByteIdentical) {
  SnapshotFixture& f = Fixture();
  auto built = DiscoveryEngine::Build(f.dataset.repo);
  const std::string built_path = TempPath("ver_snapshot_resave_built.versnap");
  const std::string resident_path =
      TempPath("ver_snapshot_resave_resident.versnap");
  const std::string paged_path = TempPath("ver_snapshot_resave_paged.versnap");
  ASSERT_TRUE(built->Save(built_path).ok());

  Result<std::unique_ptr<DiscoveryEngine>> resident =
      DiscoveryEngine::Load(f.dataset.repo, built_path);
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  ASSERT_FALSE(resident.value()->paged());
  ASSERT_TRUE(resident.value()->Save(resident_path).ok());

  PagingOptions paging;
  paging.enabled = true;
  Result<TableRepository> paged_repo =
      DiscoveryEngine::LoadRepository(built_path, paging);
  ASSERT_TRUE(paged_repo.ok()) << paged_repo.status().ToString();
  Result<std::unique_ptr<DiscoveryEngine>> paged =
      DiscoveryEngine::Load(paged_repo.value(), built_path, paging);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_TRUE(paged.value()->Save(paged_path).ok());

  const std::string built_bytes = ReadFileBytes(built_path);
  ASSERT_FALSE(built_bytes.empty());
  EXPECT_TRUE(ReadFileBytes(resident_path) == built_bytes);
  EXPECT_TRUE(ReadFileBytes(paged_path) == built_bytes);
  for (const std::string& path : {built_path, resident_path, paged_path}) {
    std::remove(path.c_str());
  }
}

// A lake with no column of two or more distinct values leaves every
// similarity bucket store empty; its snapshot must still load.
TEST(SnapshotTest, SnapshotWithEmptySimilarityStoresLoads) {
  TableRepository repo;
  for (const char* name : {"a", "b"}) {
    Schema schema;
    schema.AddAttribute(Attribute{"k", ValueType::kString});
    Table t(name, schema);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(t.AppendRow({Value::String("same")}).ok());
    }
    t.InferColumnTypes();
    ASSERT_TRUE(repo.AddTable(std::move(t)).ok());
  }
  auto built = DiscoveryEngine::Build(repo);
  EXPECT_EQ(built->num_joinable_column_pairs(), 0);
  const std::string path = TempPath("ver_snapshot_empty_similarity.versnap");
  ASSERT_TRUE(built->Save(path).ok());
  Result<std::unique_ptr<DiscoveryEngine>> loaded =
      DiscoveryEngine::Load(repo, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value()->Neighbors(ColumnRef{0, 0}, 0.5).empty());
  EXPECT_EQ(loaded.value()->SearchKeyword("same", KeywordTarget::kValues).size(),
            2u);
  std::remove(path.c_str());
}

// ------------------ snapshot sections and columnar tables -----------------

// A saved file holds exactly sections 1-7, in order: fingerprint, options,
// profiles, keyword index, similarity index, join-path index, tables.
TEST(SnapshotTest, SavedFileHoldsSectionsOneThroughSeven) {
  SnapshotFixture& f = Fixture();
  auto built = DiscoveryEngine::Build(f.dataset.repo);
  std::string path = TempPath("ver_snapshot_sections.versnap");
  ASSERT_TRUE(built->Save(path).ok());
  std::vector<SnapshotSection> sections;
  ASSERT_TRUE(ReadSnapshotFile(path, &sections).ok());
  std::vector<uint32_t> ids;
  for (const SnapshotSection& s : sections) ids.push_back(s.id);
  EXPECT_EQ(ids, (std::vector<uint32_t>{1, 2, 3, 4, 5, 6, 7}));
  std::remove(path.c_str());
}

// Snapshots embed the repository in columnar form: a process
// with only the snapshot file reconstructs tables bit-identically and
// serves queries without touching a CSV.
TEST(SnapshotTest, RepositoryRoundTripsThroughColumnarSections) {
  SnapshotFixture& f = Fixture();
  ASSERT_FALSE(f.queries.empty());
  auto built = DiscoveryEngine::Build(f.dataset.repo);
  std::string path = TempPath("ver_snapshot_repo_rt.versnap");
  ASSERT_TRUE(built->Save(path).ok());

  Result<TableRepository> reloaded = DiscoveryEngine::LoadRepository(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  TableRepository repo2 = std::move(reloaded).value();
  ASSERT_EQ(repo2.num_tables(), f.dataset.repo.num_tables());
  for (int32_t t = 0; t < repo2.num_tables(); ++t) {
    const Table& a = f.dataset.repo.table(t);
    const Table& b = repo2.table(t);
    ASSERT_EQ(a.name(), b.name());
    ASSERT_EQ(a.schema().ToString(), b.schema().ToString());
    ASSERT_EQ(a.AllRowHashes(), b.AllRowHashes()) << a.name();
  }

  // The reconstructed repository satisfies the snapshot's fingerprint, so
  // the full engine loads over it and answers bit-identically.
  Result<std::unique_ptr<DiscoveryEngine>> engine =
      DiscoveryEngine::Load(repo2, path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  VerConfig config;
  Ver fresh(&f.dataset.repo, config);
  Ver restored(&repo2, config, std::move(engine).value());
  for (const ExampleQuery& q : f.queries) {
    EXPECT_EQ(Fingerprint(fresh.RunQuery(q)),
              Fingerprint(restored.RunQuery(q)));
  }

  // Corrupting a byte inside the repo-tables section payload must surface
  // as a checksum error from LoadRepository, never a crash.
  std::string bytes = ReadFileBytes(path);
  std::string flipped = bytes;
  flipped[bytes.size() - 12] ^= 0x10;  // inside the last section's payload
  std::string bad_path = TempPath("ver_snapshot_repo_bad.versnap");
  WriteFileBytes(bad_path, flipped);
  Result<TableRepository> corrupt = DiscoveryEngine::LoadRepository(bad_path);
  EXPECT_FALSE(corrupt.ok());
  std::remove(bad_path.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ver
