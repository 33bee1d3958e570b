// Larger-than-RAM serving: a snapshot loaded paged (mmap + buffer-pool
// budget) must answer every query bit-identically to the resident load it
// replaces, keep the pool's charged residency at or under the budget when
// idle, and survive a hot swap under traffic with one budget shared across
// both snapshots — with the old snapshot's space retired once it drains.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "core/ver.h"
#include "discovery/engine.h"
#include "engine/materializer.h"
#include "query_fingerprint.h"
#include "serving/ver_server.h"
#include "util/serde.h"
#include "util/string_util.h"
#include "workload/ground_truth.h"
#include "workload/noisy_query.h"
#include "workload/open_data_gen.h"

namespace ver {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

// Budget deliberately far below any fixture snapshot: 4 frames.
constexpr uint64_t kFrameBytes = 64 * 1024;
constexpr uint64_t kBudgetBytes = 4 * kFrameBytes;

PagingOptions TightPaging() {
  PagingOptions p;
  p.enabled = true;
  p.memory_budget_bytes = kBudgetBytes;
  p.frame_bytes = kFrameBytes;
  return p;
}

struct PagedFixture {
  GeneratedDataset dataset;
  std::vector<ExampleQuery> queries;
  std::string snapshot_path;
  uint64_t snapshot_bytes = 0;
  // Resident ground truth: fingerprints from the freshly built engine.
  std::vector<std::string> expected;
  int64_t expected_pairs = 0;
  int64_t expected_vocabulary = 0;
  size_t expected_profiles = 0;

  PagedFixture() {
    OpenDataSpec spec;
    spec.num_tables = 30;
    spec.num_queries = 3;
    dataset = GenerateOpenDataLike(spec);
    for (size_t i = 0; i < dataset.queries.size(); ++i) {
      Result<ExampleQuery> q = MakeNoisyQuery(
          dataset.repo, dataset.queries[i], NoiseLevel::kZero, 3, 11 + i);
      if (q.ok()) queries.push_back(std::move(q).value());
    }
    auto built = DiscoveryEngine::Build(dataset.repo);
    expected_pairs = built->num_joinable_column_pairs();
    expected_vocabulary = built->keyword_index().vocabulary_size();
    expected_profiles = built->profiles().size();
    snapshot_path = TempPath("ver_paged_serving.versnap");
    Status saved = built->Save(snapshot_path);
    if (!saved.ok()) return;
    std::error_code ec;
    snapshot_bytes = static_cast<uint64_t>(
        fs::file_size(snapshot_path, ec));
    VerConfig config;
    Ver resident(&dataset.repo, config);
    for (const ExampleQuery& q : queries) {
      expected.push_back(
          Fingerprint(resident.Execute(DiscoveryRequest::ForQuery(q)).result));
    }
  }
};

PagedFixture& Fixture() {
  static PagedFixture* fixture = new PagedFixture();
  return *fixture;
}

// The first and last byte of each array of `t` that ColumnData's read
// surface exposes: every column's validity bitmap and, in dictionary
// columns, every non-empty string entry's arena bytes.
std::vector<const char*> ArrayBytes(const Table& t) {
  std::vector<const char*> out;
  for (int c = 0; c < t.num_columns(); ++c) {
    const ColumnData& col = t.column_data(c);
    const size_t words = static_cast<size_t>(col.size() + 63) / 64;
    if (words > 0) {
      const char* bits = reinterpret_cast<const char*>(col.validity_words());
      out.push_back(bits);
      out.push_back(bits + words * sizeof(uint64_t) - 1);
    }
    if (!col.is_dict()) continue;
    for (size_t code = 0; code < col.dict_size(); ++code) {
      const CellView entry = col.dict_entry(static_cast<uint32_t>(code));
      if (entry.type() != ValueType::kString) continue;
      const std::string_view s = entry.AsStringView();
      if (s.empty()) continue;
      out.push_back(s.data());
      out.push_back(s.data() + s.size() - 1);
    }
  }
  return out;
}

bool InMap(const SnapshotMap& map, const char* p) {
  const auto at = reinterpret_cast<uintptr_t>(p);
  const auto base = reinterpret_cast<uintptr_t>(map.data());
  return at >= base && at < base + map.size();
}

TEST(PagedServingTest, BudgetIsGenuinelySmallerThanSnapshot) {
  PagedFixture& f = Fixture();
  ASSERT_FALSE(f.queries.empty());
  ASSERT_GT(f.snapshot_bytes, 0u);
  // The whole suite is vacuous if the snapshot fits in the budget.
  ASSERT_GT(f.snapshot_bytes, kBudgetBytes);
}

TEST(PagedServingTest, PagedRepositoryAndEngineShareOneRuntime) {
  PagedFixture& f = Fixture();
  Result<TableRepository> repo =
      DiscoveryEngine::LoadRepository(f.snapshot_path, TightPaging());
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
#if !defined(__unix__) && !defined(__APPLE__)
  GTEST_SKIP() << "no mmap: paged load falls back resident";
#endif
  ASSERT_NE(repo.value().pager(), nullptr);
  // The tables borrow the map: their arrays are the map's bytes.
  ASSERT_FALSE(ArrayBytes(repo.value().table(0)).empty());
  for (int32_t t = 0; t < repo.value().num_tables(); ++t) {
    for (const char* p : ArrayBytes(repo.value().table(t))) {
      ASSERT_TRUE(InMap(repo.value().pager()->map(), p)) << "table " << t;
    }
  }
  EXPECT_EQ(repo.value().pager()->path(), f.snapshot_path);

  Result<std::unique_ptr<DiscoveryEngine>> engine =
      DiscoveryEngine::Load(repo.value(), f.snapshot_path, TightPaging());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE(engine.value()->paged());
  // Same path, same process: the engine borrows the repository's runtime
  // (one map, one space, one budget) instead of mapping the file twice.
  EXPECT_EQ(engine.value()->pager(), repo.value().pager());
  EXPECT_EQ(engine.value()->pager()->pool_stats().spaces, 1);
}

TEST(PagedServingTest, TightBudgetAnswersBitIdenticallyAndHoldsBudget) {
  PagedFixture& f = Fixture();
  ASSERT_EQ(f.expected.size(), f.queries.size());

  Result<TableRepository> repo =
      DiscoveryEngine::LoadRepository(f.snapshot_path, TightPaging());
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  Result<std::unique_ptr<DiscoveryEngine>> loaded =
      DiscoveryEngine::Load(repo.value(), f.snapshot_path, TightPaging());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded.value()->num_joinable_column_pairs(), f.expected_pairs);
  EXPECT_EQ(loaded.value()->keyword_index().vocabulary_size(),
            f.expected_vocabulary);
  EXPECT_EQ(loaded.value()->profiles().size(), f.expected_profiles);

  const bool paged = loaded.value()->paged();
  std::shared_ptr<PagerRuntime> pager = loaded.value()->pager();

  VerConfig config;
  Ver served(&repo.value(), config, std::move(loaded).value());
  for (size_t i = 0; i < f.queries.size(); ++i) {
    const DiscoveryRequest request = DiscoveryRequest::ForQuery(f.queries[i]);
    EXPECT_EQ(Fingerprint(served.Execute(request).result), f.expected[i])
        << "query " << i << " diverged under paging";
  }

  if (paged) {
    BufferPoolStats s = pager->pool_stats();
    // Queries pinned their join working sets through the pool.
    EXPECT_GT(s.misses, 0);
    // Queries finished, every pin released: residency is back under the
    // budget (pinned working sets may overcommit only *during* a query).
    EXPECT_LE(s.resident_bytes, static_cast<int64_t>(kBudgetBytes));
    EXPECT_LE(s.resident_bytes, s.peak_resident_bytes);

    // Pin the whole snapshot map at once — far over the budget, so the
    // pool must overcommit while the pin lives...
    {
      PagePin everything(pager->pool().get());
      everything.PinRange(pager->space(), 0, pager->map().size());
      BufferPoolStats pinned = pager->pool_stats();
      EXPECT_GT(pinned.resident_bytes, static_cast<int64_t>(kBudgetBytes));
      EXPECT_GT(pinned.pinned_overcommit, 0);
    }
    // ...and evict back under it the moment the pin releases.
    s = pager->pool_stats();
    EXPECT_GT(s.evictions, 0);
    EXPECT_LE(s.resident_bytes, static_cast<int64_t>(kBudgetBytes));
  }
}

// A Materializer lives one query and pins each paged table the first time
// it touches it: materializing the same candidate again costs the pool
// nothing, the pins hold residency over the budget between calls, and
// destroying the instance releases every pin.
TEST(PagedServingTest, MaterializerPinsEachTableOncePerInstance) {
  PagedFixture& f = Fixture();
  ASSERT_FALSE(f.queries.empty());
#if !defined(__unix__) && !defined(__APPLE__)
  GTEST_SKIP() << "no mmap: paged load falls back resident";
#endif
  // One 4 KiB frame of budget: any candidate's tables overcommit it.
  PagingOptions paging = TightPaging();
  paging.frame_bytes = 4096;
  paging.memory_budget_bytes = 4096;
  Result<TableRepository> repo =
      DiscoveryEngine::LoadRepository(f.snapshot_path, paging);
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  Result<std::unique_ptr<DiscoveryEngine>> loaded =
      DiscoveryEngine::Load(repo.value(), f.snapshot_path, paging);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::shared_ptr<PagerRuntime> pager = loaded.value()->pager();
  ASSERT_NE(pager, nullptr);
  auto served = std::make_shared<const Ver>(&repo.value(), VerConfig(),
                                            std::move(loaded).value());

  // A joined candidate of a real query, so the call pins several tables.
  QueryResult result =
      served->Execute(DiscoveryRequest::ForQuery(f.queries[0])).result;
  const View* joined = nullptr;
  for (const View& v : result.views) {
    if (!v.graph.edges.empty()) {
      joined = &v;
      break;
    }
  }
  ASSERT_NE(joined, nullptr) << "query 0 produced no joined view";

  {
    Materializer m(&repo.value());
    const BufferPoolStats before = pager->pool_stats();
    Result<Table> first = m.Materialize(joined->graph, joined->projection,
                                        MaterializeOptions(), "first");
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const BufferPoolStats after_first = pager->pool_stats();
    EXPECT_GT(after_first.hits + after_first.misses,
              before.hits + before.misses);
    // The pins outlive the call.
    EXPECT_GT(after_first.resident_bytes,
              static_cast<int64_t>(paging.memory_budget_bytes));

    Result<Table> second = m.Materialize(joined->graph, joined->projection,
                                         MaterializeOptions(), "second");
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    const BufferPoolStats after_second = pager->pool_stats();
    EXPECT_EQ(after_second.hits, after_first.hits);
    EXPECT_EQ(after_second.misses, after_first.misses);
    EXPECT_EQ(second->AllRowHashes(), first->AllRowHashes());
  }
  // The instance is gone, and with it every pin: eviction is back to the
  // budget.
  const BufferPoolStats drained = pager->pool_stats();
  EXPECT_LE(drained.resident_bytes,
            static_cast<int64_t>(paging.memory_budget_bytes));

  // The held pins overcommitted the budget, and the server reports the
  // pool's count as is.
  EXPECT_GT(drained.pinned_overcommit, 0);
  VerServer server(served, ServingOptions());
  EXPECT_EQ(server.stats().pool_pinned_overcommit,
            drained.pinned_overcommit);
}

// A table is one span of the snapshot map, so pinning it through the
// repository pins each of its frames once. Under a zero budget every frame
// is evicted the moment its pin releases, so each table's pin is all
// misses: a second pin of a frame within the table would count a hit. And
// the span covers every array the table borrows: while the table's pin is
// held, a one-byte pin of any of its arrays' bytes finds the frame
// resident, where a span that missed the array would count a miss.
TEST(PagedServingTest, PinningATablePinsEveryFrameOfItsArraysOnce) {
  PagedFixture& f = Fixture();
#if !defined(__unix__) && !defined(__APPLE__)
  GTEST_SKIP() << "no mmap: paged load falls back resident";
#endif
  PagingOptions paging = TightPaging();
  paging.frame_bytes = 4096;
  paging.memory_budget_bytes = 0;
  Result<TableRepository> repo =
      DiscoveryEngine::LoadRepository(f.snapshot_path, paging);
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  std::shared_ptr<PagerRuntime> pager = repo.value().pager();
  ASSERT_NE(pager, nullptr);
  ASSERT_GT(repo.value().num_tables(), 0);
  BufferPool* pool = pager->pool().get();
  const SnapshotMap& map = pager->map();
  for (int32_t t = 0; t < repo.value().num_tables(); ++t) {
    const std::vector<const char*> bytes = ArrayBytes(repo.value().table(t));
    ASSERT_FALSE(bytes.empty()) << "table " << t;
    const BufferPoolStats before = pager->pool_stats();
    PagePin pin(pool);
    repo.value().PinTable(t, &pin);
    const BufferPoolStats pinned = pager->pool_stats();
    EXPECT_GT(pinned.misses, before.misses) << "table " << t;
    EXPECT_EQ(pinned.hits, before.hits) << "table " << t;
    for (const char* p : bytes) {
      ASSERT_TRUE(InMap(map, p)) << "table " << t;
      const uint64_t offset = static_cast<uint64_t>(p - map.data());
      const BufferPoolStats probe_before = pager->pool_stats();
      pool->Pin(pager->space(), offset, 1);
      const BufferPoolStats probed = pager->pool_stats();
      pool->Unpin(pager->space(), offset, 1);
      ASSERT_EQ(probed.hits, probe_before.hits + 1)
          << "table " << t << ", map byte " << offset;
      ASSERT_EQ(probed.misses, probe_before.misses)
          << "table " << t << ", map byte " << offset;
    }
  }
  EXPECT_EQ(pager->pool_stats().resident_bytes, 0);
}

// A paged load verifies no checksums and skips the keyword posting scan,
// so a posting that addresses no column must be dropped at query time: it
// never reaches SEARCH-KEYWORD's output, and a query on its key returns.
TEST(PagedServingTest, CorruptKeywordPostingIsDroppedAtQueryTime) {
  PagedFixture& f = Fixture();
  ASSERT_FALSE(f.queries.empty());
  ASSERT_FALSE(f.queries[0].columns.empty());
  ASSERT_FALSE(f.queries[0].columns[0].empty());
#if !defined(__unix__) && !defined(__APPLE__)
  GTEST_SKIP() << "no mmap: paged load falls back resident";
#endif
  const std::string example = f.queries[0].columns[0][0];
  const std::string needle = ToLower(Trim(example));

  Result<std::unique_ptr<SnapshotMap>> map = SnapshotMap::Open(f.snapshot_path);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  const SnapshotSectionEntry* keyword_section = map.value()->FindSection(4);
  ASSERT_NE(keyword_section, nullptr);
  std::string bytes(map.value()->data(),
                    static_cast<size_t>(map.value()->size()));

  // The section opens with the value store: key blob, key offsets, the
  // encoded ColumnRef postings, posting offsets.
  SerdeReader r(std::string_view(bytes.data() + keyword_section->offset,
                                 static_cast<size_t>(keyword_section->size)),
                "keyword section");
  const char* blob = nullptr;
  const char* key_offsets = nullptr;
  const char* postings = nullptr;
  const char* posting_offsets = nullptr;
  uint64_t blob_len = 0, num_keys = 0, num_postings = 0, num_offsets = 0;
  ASSERT_TRUE(r.ReadStringExtent("key blob", &blob, &blob_len).ok());
  ASSERT_TRUE(r.ReadArrayExtent(4, "key offsets", &key_offsets, &num_keys).ok());
  ASSERT_TRUE(r.ReadArrayExtent(8, "postings", &postings, &num_postings).ok());
  ASSERT_TRUE(
      r.ReadArrayExtent(4, "posting offsets", &posting_offsets, &num_offsets)
          .ok());
  auto u32_at = [](const char* base, uint64_t i) {
    uint32_t v;
    std::memcpy(&v, base + i * 4, 4);
    return v;
  };
  // Point the example's first posting at table 99999.
  const ColumnRef bogus{99999, 0};
  bool patched = false;
  for (uint64_t k = 0; k + 1 < num_keys && !patched; ++k) {
    uint32_t b = u32_at(key_offsets, k), e = u32_at(key_offsets, k + 1);
    if (std::string_view(blob + b, e - b) != needle) continue;
    uint64_t p = u32_at(posting_offsets, k);
    ASSERT_LT(p, num_postings);
    const uint64_t encoded = bogus.Encode();
    std::memcpy(&bytes[static_cast<size_t>(postings - bytes.data()) + p * 8],
                &encoded, 8);
    patched = true;
  }
  ASSERT_TRUE(patched) << "no keyword posting for '" << needle << "'";
  const std::string path = TempPath("ver_paged_serving_bad_posting.versnap");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Resident loads verify the section checksum and refuse the file.
  EXPECT_FALSE(DiscoveryEngine::Load(f.dataset.repo, path).ok());

  Result<TableRepository> repo =
      DiscoveryEngine::LoadRepository(path, TightPaging());
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  Result<std::unique_ptr<DiscoveryEngine>> loaded =
      DiscoveryEngine::Load(repo.value(), path, TightPaging());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded.value()->paged());
  for (KeywordTarget target : {KeywordTarget::kValues, KeywordTarget::kAll}) {
    for (bool fuzzy : {false, true}) {
      for (const KeywordHit& hit :
           loaded.value()->SearchKeyword(example, target, fuzzy)) {
        ASSERT_LT(hit.column.table_id, repo.value().num_tables())
            << "bogus posting reached SEARCH-KEYWORD";
      }
    }
  }

  VerConfig config;
  Ver served(&repo.value(), config, std::move(loaded).value());
  QueryResult result =
      served
          .Execute(DiscoveryRequest::ForQuery(
              ExampleQuery::FromColumns({{example}})))
          .result;
  for (const ColumnSelectionResult& sel : result.selection) {
    for (const ScoredColumn& c : sel.candidates) {
      EXPECT_LT(c.ref.table_id, repo.value().num_tables());
    }
  }
  std::remove(path.c_str());
}

// The similarity section opens with rows per band, which BandHash
// multiplies by the band index to address signature slots. A corrupt
// value must fail the load with both values named: paged loads skip the
// checksum, and a resident load trusts a file whose checksum was
// recomputed, so neither may hand the value to a query.
TEST(PagedServingTest, CorruptRowsPerBandIsRejected) {
  PagedFixture& f = Fixture();
  ASSERT_FALSE(f.queries.empty());
#if !defined(__unix__) && !defined(__APPLE__)
  GTEST_SKIP() << "no mmap: paged load falls back resident";
#endif
  Result<std::unique_ptr<SnapshotMap>> map = SnapshotMap::Open(f.snapshot_path);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  const SnapshotSectionEntry* similarity_section = map.value()->FindSection(5);
  ASSERT_NE(similarity_section, nullptr);
  std::string bytes(map.value()->data(),
                    static_cast<size_t>(map.value()->size()));
  int32_t stored = 0;
  std::memcpy(&stored, bytes.data() + similarity_section->offset, 4);
  ASSERT_EQ(stored, 4);  // 128 permutations over 32 bands
  const int32_t corrupt = 0x40000000;
  std::memcpy(&bytes[static_cast<size_t>(similarity_section->offset)],
              &corrupt, 4);
  const std::string path = TempPath("ver_paged_serving_bad_rows.versnap");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto expect_rejected = [](const Status& status) {
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("1073741824"), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.ToString().find("32 bands of 4 rows"), std::string::npos)
        << status.ToString();
  };

  Result<TableRepository> repo =
      DiscoveryEngine::LoadRepository(path, TightPaging());
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  expect_rejected(
      DiscoveryEngine::Load(repo.value(), path, TightPaging()).status());

  // The same value behind a valid checksum, loaded resident.
  std::vector<SnapshotSection> sections;
  ASSERT_TRUE(ReadSnapshotFile(f.snapshot_path, &sections).ok());
  for (SnapshotSection& section : sections) {
    if (section.id == 5) std::memcpy(&section.payload[0], &corrupt, 4);
  }
  ASSERT_TRUE(WriteSnapshotFile(path, sections).ok());
  expect_rejected(DiscoveryEngine::Load(f.dataset.repo, path).status());
  std::remove(path.c_str());
}

// File offsets of one dictionary column's bytes in the repo-tables section
// (section 7): its sealed flag, the code of its first non-null row and the
// arena offset of its first string entry.
struct DictColumnBytes {
  int32_t table = -1;
  int column = -1;
  size_t sealed_at = 0;
  size_t code_at = 0;
  size_t string_offset_at = 0;
};

// Walks section 7 of `bytes` along ColumnData::SaveTo's layout and returns
// the first dictionary column of table `want_table` that has a non-null row
// and a string entry.
DictColumnBytes FindDictColumn(const std::string& bytes,
                               const SnapshotSectionEntry& section,
                               int32_t want_table) {
  DictColumnBytes found;
  SerdeReader r(std::string_view(bytes.data() + section.offset,
                                 static_cast<size_t>(section.size)),
                "repo tables section");
  uint64_t count = 0;  // elements of the last extent read
  auto extent = [&r, &count](size_t width) {
    const char* raw = nullptr;
    EXPECT_TRUE(r.ReadArrayExtent(width, "array", &raw, &count).ok());
    return raw;
  };
  int32_t num_tables = 0;
  EXPECT_TRUE(r.ReadI32(&num_tables).ok());
  for (int32_t t = 0; t < num_tables && t <= want_table; ++t) {
    std::string name;
    Schema schema;
    int64_t rows = 0;
    EXPECT_TRUE(r.ReadString(&name).ok());
    EXPECT_TRUE(schema.LoadFrom(&r).ok());
    EXPECT_TRUE(r.ReadI64(&rows).ok());
    for (int c = 0; c < schema.num_attributes(); ++c) {
      uint8_t enc = 0;
      bool sealed = false;
      int64_t tallies[5] = {};
      EXPECT_TRUE(r.ReadU8(&enc).ok());
      const size_t sealed_at = section.offset + r.pos();
      EXPECT_TRUE(r.ReadBool(&sealed).ok());
      for (int64_t& v : tallies) EXPECT_TRUE(r.ReadI64(&v).ok());
      const char* valid = extent(8);
      if (enc != static_cast<uint8_t>(ColumnEncoding::kDict)) {
        extent(8);  // int, double or numeric payload
        if (enc == static_cast<uint8_t>(ColumnEncoding::kNumeric)) extent(8);
        continue;
      }
      const char* codes = extent(4);
      const char* types = extent(1);
      const uint64_t entries = count;
      const char* payloads = extent(8);
      extent(4);  // lengths
      extent(8);  // hashes
      const char* arena = nullptr;
      uint64_t arena_len = 0;
      EXPECT_TRUE(r.ReadStringExtent("arena", &arena, &arena_len).ok());
      if (t != want_table || found.table >= 0) continue;
      int64_t row = 0;
      while (row < rows && ((static_cast<unsigned char>(valid[row / 8]) >>
                             (row % 8)) & 1) == 0) {
        ++row;
      }
      uint64_t entry = 0;
      while (entry < entries &&
             types[entry] != static_cast<char>(ValueType::kString)) {
        ++entry;
      }
      if (row == rows || entry == entries) continue;
      found.table = t;
      found.column = c;
      found.sealed_at = sealed_at;
      found.code_at = static_cast<size_t>(codes - bytes.data()) +
                      static_cast<size_t>(row) * 4;
      found.string_offset_at =
          static_cast<size_t>(payloads - bytes.data()) + entry * 8;
    }
  }
  return found;
}

// A paged load verifies no checksums and skips the column content scans,
// so a corrupt dictionary code or string offset of a paged table must fail
// the first materialization that reads the table, with an error naming the
// table, while the query around it still answers.
TEST(PagedServingTest, CorruptPagedColumnFailsItsMaterialization) {
  PagedFixture& f = Fixture();
  ASSERT_FALSE(f.queries.empty());
#if !defined(__unix__) && !defined(__APPLE__)
  GTEST_SKIP() << "no mmap: paged load falls back resident";
#endif
  Result<ColumnRef> target =
      ResolveColumn(f.dataset.repo, f.dataset.queries[0].gt_tables[0],
                    f.dataset.queries[0].gt_attributes[0]);
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  const std::string table_name =
      f.dataset.repo.table(target->table_id).name();

  Result<std::unique_ptr<SnapshotMap>> map = SnapshotMap::Open(f.snapshot_path);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  const SnapshotSectionEntry* tables_section = map.value()->FindSection(7);
  ASSERT_NE(tables_section, nullptr);
  const std::string clean(map.value()->data(),
                          static_cast<size_t>(map.value()->size()));
  const DictColumnBytes column =
      FindDictColumn(clean, *tables_section, target->table_id);
  ASSERT_EQ(column.table, target->table_id)
      << "no dictionary column with strings in " << table_name;

  struct Patch {
    const char* name;
    size_t at;
    uint64_t value;
    size_t width;
  };
  const Patch patches[] = {
      {"code", column.code_at, 0xFFFFFFF0u, 4},
      {"string offset", column.string_offset_at, uint64_t{1} << 40, 8}};
  const std::string path = TempPath("ver_paged_serving_bad_column.versnap");
  for (const Patch& patch : patches) {
    SCOPED_TRACE(patch.name);
    std::string bytes = clean;
    std::memcpy(&bytes[patch.at], &patch.value, patch.width);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    // Resident loads verify the section checksum and refuse the file.
    EXPECT_FALSE(DiscoveryEngine::LoadRepository(path).ok());

    Result<TableRepository> repo =
        DiscoveryEngine::LoadRepository(path, TightPaging());
    ASSERT_TRUE(repo.ok()) << repo.status().ToString();
    Result<std::unique_ptr<DiscoveryEngine>> loaded =
        DiscoveryEngine::Load(repo.value(), path, TightPaging());
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    JoinGraph graph;
    graph.tables = {column.table};
    const std::vector<ColumnRef> projection = {
        ColumnRef{column.table, column.column}};
    for (int call = 0; call < 2; ++call) {
      Materializer m(&repo.value());
      Result<Table> view =
          m.Materialize(graph, projection, MaterializeOptions(), "corrupt");
      ASSERT_FALSE(view.ok());
      EXPECT_TRUE(view.status().IsIOError()) << view.status().ToString();
      EXPECT_NE(view.status().message().find("'" + table_name + "'"),
                std::string::npos)
          << view.status().ToString();
    }

    Ver served(&repo.value(), VerConfig(), std::move(loaded).value());
    DiscoveryResponse response =
        served.Execute(DiscoveryRequest::ForQuery(f.queries[0]));
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_GT(response.result.search.num_materialization_failures, 0);
  }

  // A column saved unsealed is sealed by TableRepository::AddTable, which
  // reads every code, so a paged load scans it at once and fails.
  {
    std::string bytes = clean;
    const uint32_t bad_code = 0xFFFFFFF0u;
    std::memcpy(&bytes[column.code_at], &bad_code, 4);
    bytes[column.sealed_at] = 0;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    Result<TableRepository> repo =
        DiscoveryEngine::LoadRepository(path, TightPaging());
    ASSERT_FALSE(repo.ok());
    EXPECT_TRUE(repo.status().IsIOError()) << repo.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(PagedServingTest, HotSwapUnderPagedTrafficSharesOneBudget) {
  PagedFixture& f = Fixture();
  ASSERT_FALSE(f.queries.empty());
#if !defined(__unix__) && !defined(__APPLE__)
  GTEST_SKIP() << "no mmap: paged load falls back resident";
#endif

  // Two byte-identical snapshot files so the swap is between two distinct
  // maps (distinct pool spaces) with identical answers.
  std::string path_b = TempPath("ver_paged_serving_swap.versnap");
  {
    std::ifstream in(f.snapshot_path, std::ios::binary);
    std::ofstream out(path_b, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
  }

  // Snapshot A: paged under the tight budget; its runtime owns the pool.
  auto repo_a = std::make_unique<TableRepository>();
  {
    Result<TableRepository> r =
        DiscoveryEngine::LoadRepository(f.snapshot_path, TightPaging());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    *repo_a = std::move(r).value();
  }
  ASSERT_NE(repo_a->pager(), nullptr);
  std::shared_ptr<BufferPool> pool = repo_a->pager()->pool();

  Result<std::unique_ptr<DiscoveryEngine>> engine_a =
      DiscoveryEngine::Load(*repo_a, f.snapshot_path, TightPaging());
  ASSERT_TRUE(engine_a.ok()) << engine_a.status().ToString();

  VerConfig config;
  auto ver_a = std::make_shared<const Ver>(repo_a.get(), config,
                                           std::move(engine_a).value());

  ServingOptions opts;
  opts.num_workers = 4;
  opts.cache_capacity = 0;   // force real pipeline runs through the pool
  VerServer server(ver_a, opts);

  ServerStats before = server.stats();
  EXPECT_TRUE(before.paged);
  EXPECT_EQ(before.pool_budget_bytes, kBudgetBytes);

  // Snapshot B: its own map and space, charged to the *same* pool, so one
  // budget covers the pair for the whole swap window.
  PagingOptions paging_b = TightPaging();
  paging_b.pool = pool;
  auto repo_b = std::make_unique<TableRepository>();
  {
    Result<TableRepository> r =
        DiscoveryEngine::LoadRepository(path_b, paging_b);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    *repo_b = std::move(r).value();
  }
  ASSERT_NE(repo_b->pager(), nullptr);
  EXPECT_EQ(repo_b->pager()->pool(), pool);
  Result<std::unique_ptr<DiscoveryEngine>> engine_b =
      DiscoveryEngine::Load(*repo_b, path_b, paging_b);
  ASSERT_TRUE(engine_b.ok()) << engine_b.status().ToString();
  auto ver_b = std::make_shared<const Ver>(repo_b.get(), config,
                                           std::move(engine_b).value());

  // Both snapshots alive: two spaces, one pool.
  EXPECT_EQ(pool->stats().spaces, 2);

  // Hammer the server from 3 threads while the swap happens mid-traffic.
  constexpr int kThreads = 3;
  constexpr int kRounds = 4;
  std::vector<std::vector<std::string>> got(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (const ExampleQuery& q : f.queries) {
          ServedResult r = server.Serve(DiscoveryRequest::ForQuery(q));
          got[t].push_back(r.status.ok() && r.result != nullptr
                               ? Fingerprint(*r.result)
                               : "error:" + r.status.ToString());
        }
      }
    });
  }
  // Let some traffic land on A, then swap to B under load.
  server.Serve(DiscoveryRequest::ForQuery(f.queries[0]));
  ASSERT_TRUE(server.SwapSnapshot(ver_b));
  for (std::thread& th : workers) th.join();

  // Every serve — before, during and after the swap — is bit-identical to
  // the resident ground truth.
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), f.queries.size() * kRounds);
    for (size_t i = 0; i < got[t].size(); ++i) {
      EXPECT_EQ(got[t][i], f.expected[i % f.queries.size()])
          << "thread " << t << " serve " << i;
    }
  }

  ServerStats after = server.stats();
  EXPECT_TRUE(after.paged);
  EXPECT_EQ(after.snapshot_swaps, 1);
  EXPECT_GT(after.pool_misses, 0);

  // Drain and drop snapshot A: its runtime retires its space, releasing
  // the charge; the shared pool is left serving B alone, under budget.
  server.Shutdown();
  ver_a.reset();
  repo_a.reset();
  BufferPoolStats s = pool->stats();
  EXPECT_EQ(s.spaces, 1);
  EXPECT_LE(s.resident_bytes, static_cast<int64_t>(kBudgetBytes));

  std::remove(path_b.c_str());
}

}  // namespace
}  // namespace ver
