// Equivalence property tests for the typed columnar storage engine.
//
// The seed data model computed everything from materialized Value cells
// (vector<vector<Value>> layout). This suite recomputes the seed-path
// quantities through the legacy at() boundary — which still materializes
// Values — and asserts the columnar fast paths (cached dictionary hashes,
// typed scans, CellView joins) are bit-identical: AllRowHashes,
// DistinctCount, distinct projection, and end-to-end ranked views across
// generated noisy repositories, both freshly built and reloaded from the
// columnar snapshot sections.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <unordered_set>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "core/ver.h"
#include "discovery/engine.h"
#include "query_fingerprint.h"
#include "table/csv.h"
#include "util/hash.h"
#include "workload/chembl_gen.h"
#include "workload/noisy_query.h"
#include "workload/open_data_gen.h"
#include "workload/wdc_gen.h"

namespace ver {
namespace {

namespace fs = std::filesystem;

// Seed-path reference: row hash recomputed from materialized Values.
uint64_t ReferenceRowHash(const Table& t, int64_t row) {
  uint64_t h = 0x726f7768617368ULL;
  for (int c = 0; c < t.num_columns(); ++c) {
    Value v = t.at(row, c);  // materializing legacy boundary
    h = HashCombine(h, v.Hash());
  }
  return h;
}

// Seed-path reference: distinct count from per-cell Value hashes (null
// counts as a value).
int64_t ReferenceDistinctCount(const Table& t, int col) {
  std::unordered_set<uint64_t> seen;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    seen.insert(t.at(r, col).Hash());
  }
  return static_cast<int64_t>(seen.size());
}

void ExpectTableMatchesSeedSemantics(const Table& t) {
  std::vector<uint64_t> hashes = t.AllRowHashes();
  ASSERT_EQ(hashes.size(), static_cast<size_t>(t.num_rows()));
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    ASSERT_EQ(hashes[r], ReferenceRowHash(t, r))
        << t.name() << " row " << r;
  }
  for (int c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ(t.DistinctCount(c), ReferenceDistinctCount(t, c))
        << t.name() << " col " << c;
    // Distinct non-null hash sets agree with per-cell Value hashing.
    std::unordered_set<uint64_t> reference;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      Value v = t.at(r, c);
      if (!v.is_null()) reference.insert(v.Hash());
    }
    std::vector<uint64_t> columnar = t.column_data(c).DistinctHashes();
    std::unordered_set<uint64_t> columnar_set(columnar.begin(),
                                              columnar.end());
    EXPECT_EQ(columnar_set, reference) << t.name() << " col " << c;
    EXPECT_EQ(columnar.size(), columnar_set.size()) << "duplicate hashes";
  }
}

TEST(StorageEquivalenceTest, GeneratedRepositoriesMatchSeedSemantics) {
  OpenDataSpec od_spec;
  od_spec.num_tables = 25;
  od_spec.num_queries = 2;
  GeneratedDataset od = GenerateOpenDataLike(od_spec);
  WdcSpec wdc_spec;
  wdc_spec.versions_per_topic = 4;
  wdc_spec.num_filler_tables = 10;
  GeneratedDataset wdc = GenerateWdcLike(wdc_spec);
  ChemblSpec chembl_spec;
  chembl_spec.num_compounds = 60;
  chembl_spec.num_targets = 30;
  chembl_spec.num_cells = 15;
  chembl_spec.num_assays = 50;
  chembl_spec.num_activities = 80;
  chembl_spec.num_filler_tables = 4;
  GeneratedDataset chembl = GenerateChemblLike(chembl_spec);
  for (const GeneratedDataset* ds : {&od, &wdc, &chembl}) {
    for (int32_t t = 0; t < ds->repo.num_tables(); ++t) {
      ExpectTableMatchesSeedSemantics(ds->repo.table(t));
    }
  }
}

TEST(StorageEquivalenceTest, CsvIngestPreservesCellsExactly) {
  const std::string csv =
      "name,count,ratio,note\n"
      "alpha,1,0.5,plain\n"
      "beta,,2.5,\"quoted, cell\"\n"
      "alpha,2,3,trailing\n"
      ",17,0.25,\n"
      "gamma,98765432109876543210,2,dup\n";  // huge digits stay strings
  Result<Table> parsed = ReadCsvString(csv, "ingest");
  ASSERT_TRUE(parsed.ok());
  const Table& t = parsed.value();
  ASSERT_EQ(t.num_rows(), 5);
  ExpectTableMatchesSeedSemantics(t);
  // Cell-level reads agree across at(), cell() and ToText.
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    for (int c = 0; c < t.num_columns(); ++c) {
      Value v = t.at(r, c);
      CellView cv = t.cell(r, c);
      EXPECT_EQ(cv.type(), v.type());
      EXPECT_EQ(cv.ToText(), v.ToText());
      EXPECT_EQ(cv.Hash(), v.Hash());
    }
  }
  // Writing back and re-reading is a fixed point.
  std::string rendered = WriteCsvString(t);
  Result<Table> reparsed = ReadCsvString(rendered, "ingest");
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed.value().AllRowHashes(), t.AllRowHashes());
  EXPECT_EQ(WriteCsvString(reparsed.value()), rendered);
}

TEST(StorageEquivalenceTest, ProjectDistinctMatchesSeedHashDedup) {
  OpenDataSpec spec;
  spec.num_tables = 12;
  spec.num_queries = 1;
  GeneratedDataset ds = GenerateOpenDataLike(spec);
  for (int32_t ti = 0; ti < ds.repo.num_tables(); ++ti) {
    const Table& t = ds.repo.table(ti);
    if (t.num_columns() < 2) continue;
    std::vector<int> cols = {1, 0};
    Table projected = t.Project(cols, /*distinct=*/true, "p");
    // Seed reference: hash-set dedup over materialized rows, first
    // occurrence wins, in row order.
    std::unordered_set<uint64_t> seen;
    std::vector<uint64_t> expected_row_hashes;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      uint64_t h = 0x726f7768617368ULL;
      for (int c : cols) h = HashCombine(h, t.at(r, c).Hash());
      if (seen.insert(h).second) expected_row_hashes.push_back(h);
    }
    EXPECT_EQ(projected.AllRowHashes(), expected_row_hashes) << t.name();
  }
}

// End-to-end: the full QBE pipeline over (a) the generated repository and
// (b) the repository reconstructed from the snapshot's columnar table
// sections must produce bit-identical ranked views.
TEST(StorageEquivalenceTest, RankedViewsBitIdenticalAcrossColumnarReload) {
  OpenDataSpec spec;
  spec.num_tables = 30;
  spec.num_queries = 3;
  GeneratedDataset ds = GenerateOpenDataLike(spec);
  std::vector<ExampleQuery> queries;
  for (size_t i = 0; i < ds.queries.size(); ++i) {
    Result<ExampleQuery> q = MakeNoisyQuery(ds.repo, ds.queries[i],
                                            NoiseLevel::kMedium, 3, 77 + i);
    if (q.ok()) queries.push_back(std::move(q).value());
  }
  ASSERT_FALSE(queries.empty());

  auto built = DiscoveryEngine::Build(ds.repo);
  std::string path =
      (fs::temp_directory_path() / "ver_storage_equiv.versnap").string();
  ASSERT_TRUE(built->Save(path).ok());

  Result<TableRepository> reloaded = DiscoveryEngine::LoadRepository(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  TableRepository repo2 = std::move(reloaded).value();
  ASSERT_EQ(repo2.num_tables(), ds.repo.num_tables());
  for (int32_t t = 0; t < ds.repo.num_tables(); ++t) {
    const Table& fresh = ds.repo.table(t);
    const Table& loaded = repo2.table(t);
    ASSERT_EQ(loaded.name(), fresh.name());
    ASSERT_EQ(loaded.AllRowHashes(), fresh.AllRowHashes()) << fresh.name();
    ASSERT_EQ(loaded.ToString(20), fresh.ToString(20)) << fresh.name();
  }

  // The reconstructed repository passes the snapshot's own fingerprint
  // check, and the loaded engine over it answers bit-identically.
  Result<std::unique_ptr<DiscoveryEngine>> loaded_engine =
      DiscoveryEngine::Load(repo2, path);
  ASSERT_TRUE(loaded_engine.ok()) << loaded_engine.status().ToString();

  VerConfig config;
  Ver fresh(&ds.repo, config);
  Ver restored(&repo2, config, std::move(loaded_engine).value());
  for (const ExampleQuery& q : queries) {
    const DiscoveryRequest request = DiscoveryRequest::ForQuery(q);
    EXPECT_EQ(Fingerprint(fresh.Execute(request).result),
              Fingerprint(restored.Execute(request).result));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ver
