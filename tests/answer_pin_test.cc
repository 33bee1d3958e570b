// Answer pin: the online pipeline's answers on the perfbench lakes, frozen
// as committed digests.
//
// Each (lake, mode) pair runs a fixed pool of noisy QBE queries (3 examples
// per column; zero, medium and high noise; fixed seeds) through
// Ver::Execute, batch and StopAfter(1). A query's hash folds its
// cell-exact Fingerprint(result, repo) (tests/query_fingerprint.h) with
// early_terminated and views_delivered; the pool's digest folds the query
// hashes in pool order.
// Refactors of the pipeline must leave every digest unchanged, at every
// SIMD tier. On a mismatch the test names the first query that differs and
// prints the new hashes, so an intended answer change can be re-recorded.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "query_fingerprint.h"
#include "util/hash.h"
#include "workload/chembl_gen.h"
#include "workload/noisy_query.h"
#include "workload/open_data_gen.h"
#include "workload/wdc_gen.h"

namespace ver {
namespace {

constexpr int kExamplesPerColumn = 3;

// Up to `size` distinct noisy queries, round-robin over (ground-truth
// query, noise level) as perfbench draws its pools; draw i uses seed
// Mix64(seed + i).
std::vector<ExampleQuery> BuildPool(const GeneratedDataset& dataset,
                                    size_t size, uint64_t seed) {
  static const NoiseLevel kLevels[] = {NoiseLevel::kZero, NoiseLevel::kMedium,
                                       NoiseLevel::kHigh};
  std::vector<ExampleQuery> pool;
  std::unordered_set<std::string> keys;
  uint64_t draw = 0;
  for (int round = 0; round < 16 && pool.size() < size; ++round) {
    for (const GroundTruthQuery& gt : dataset.queries) {
      for (NoiseLevel level : kLevels) {
        if (pool.size() >= size) break;
        Result<ExampleQuery> q = MakeNoisyQuery(
            dataset.repo, gt, level, kExamplesPerColumn, Mix64(seed + draw++));
        if (!q.ok()) continue;
        if (!keys.insert(CanonicalQueryKey(q.value())).second) continue;
        pool.push_back(std::move(q).value());
      }
    }
  }
  return pool;
}

// The cell-exact fingerprint: views 4C pruned before delivery are rebuilt
// over `repo` and checked against their stored row sets.
uint64_t QueryHash(const DiscoveryResponse& response,
                   const TableRepository& repo) {
  uint64_t h = HashString(Fingerprint(response.result, repo));
  h = HashCombine(h, response.early_terminated ? 1 : 0);
  return HashCombine(h, static_cast<uint64_t>(response.views_delivered));
}

uint64_t Digest(const std::vector<uint64_t>& query_hashes) {
  uint64_t digest = 0;
  for (uint64_t h : query_hashes) digest = HashCombine(digest, h);
  return digest;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string Describe(const ExampleQuery& query) {
  std::string out;
  for (size_t c = 0; c < query.columns.size(); ++c) {
    if (c > 0) out += " | ";
    for (size_t r = 0; r < query.columns[c].size(); ++r) {
      if (r > 0) out += ", ";
      out += query.columns[c][r];
    }
  }
  return out;
}

// The committed answers of one (lake, mode) pair.
struct Pin {
  uint64_t digest;
  std::vector<uint64_t> query_hashes;
};

void ExpectPinned(const GeneratedDataset& dataset, size_t pool_size,
                  uint64_t seed, const Pin& batch, const Pin& first_view) {
  std::vector<ExampleQuery> pool = BuildPool(dataset, pool_size, seed);
  ASSERT_EQ(pool.size(), pool_size);
  Ver ver(&dataset.repo, VerConfig());
  for (int stop_after : {0, 1}) {
    const Pin& pin = stop_after == 0 ? batch : first_view;
    SCOPED_TRACE(stop_after == 0 ? "batch" : "StopAfter(1)");
    std::vector<uint64_t> hashes;
    for (const ExampleQuery& query : pool) {
      DiscoveryResponse response =
          ver.Execute(DiscoveryRequest::ForQuery(query).StopAfter(stop_after));
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      hashes.push_back(QueryHash(response, dataset.repo));
    }
    const uint64_t digest = Digest(hashes);
    if (digest == pin.digest && hashes == pin.query_hashes) continue;
    std::string report = "digest " + Hex(digest) + ", pinned " +
                         Hex(pin.digest) + "\n";
    for (size_t i = 0; i < hashes.size(); ++i) {
      if (i < pin.query_hashes.size() && hashes[i] == pin.query_hashes[i]) {
        continue;
      }
      report += "first differing query #" + std::to_string(i) + ": " +
                Describe(pool[i]) + "\n";
      break;
    }
    report += "query hashes:";
    for (size_t i = 0; i < hashes.size(); ++i) {
      report += (i % 3 == 0 ? "\n    " : " ") + Hex(hashes[i]) + "u,";
    }
    ADD_FAILURE() << report;
  }
}

// --------------------------------------------------------------- pinned
// Identical at the avx512, avx2 and scalar tiers.

const Pin kPortalBatch = {
    0xa3822b382fe38e62u,
    {0x26038c34facb5504u, 0xc50dfab6d51384c6u, 0xefc27e0f01280342u,
     0x9fb8a56f3fabe50fu, 0x6eeac53db1be72c7u, 0xa29890c11c0b6415u,
     0xdda72e5c46aa23edu, 0xdda72e5c46aa23edu, 0xba424fcd21466cd3u,
     0xc9155f4412b5453cu, 0xc7e3914937d795d7u, 0x8cd20c40d8108bbdu,
     0x2dc83ffa9ff53779u, 0x4db93c8cbc34f447u, 0x5a744e728a0bc38bu,
     0x781591550a9b03bcu, 0x82450ad45e2de709u, 0xf75cd23a1794bc82u,
     0x1c00ea423f2a17e3u, 0x372649a4f6458f50u, 0xfdff02dfee3956dau,
     0x5e0ba16b46bb3d43u, 0xf5467202c5316dd1u, 0xc8bc85bdc789d21fu,
     0x61d34cac6b4bea74u, 0x8826ccddd92c5455u, 0x0abf3a25116f37b6u,
     0x881b1b15dc736166u, 0x881b1b15dc736166u, 0xef9abe334161c6e3u}};

const Pin kPortalFirstView = {
    0xd98c7836a23a58c7u,
    {0x2023b6d5a8a9e2f0u, 0x1cfec610174f31a8u, 0x73568637510f66dbu,
     0xabc3dff0ca3938dau, 0xeeee4a3a1dde93f9u, 0x5dae54d934050accu,
     0x506520f9dec7b679u, 0x506520f9dec7b679u, 0x3296d8a582f823a9u,
     0xb2e96b56714a2868u, 0x2a4d97bb3f5a0f76u, 0x5806ceb4d1c41774u,
     0x8c9d7b7d782bf06au, 0x7bdb28721ac01c01u, 0xcfb4d32da4625a99u,
     0x80ba1c6a66b3f725u, 0x8dc68ec4cf514788u, 0xf891bf7e0530521fu,
     0x87f72bebd12e80b4u, 0x40824bcd48f5badbu, 0xb6be6e848b001f0du,
     0xc17ee9a851365437u, 0xfbe4398205792e99u, 0xe6c4edef58ecc00du,
     0x19ce421e4259f07cu, 0xae6a66e0c85844abu, 0xf15f0161eb490d0du,
     0x45c2c0ae93111545u, 0x45c2c0ae93111545u, 0xffe961ae2b1675bau}};

const Pin kWdcBatch = {
    0x27c54a6fc6c8a862u,
    {0x81737e530b5a5ce0u, 0x85a31424ecdcf559u, 0x6c5787260195f87au,
     0x471ea6370136cfa9u, 0x2dc268d81010e0beu, 0x7c7ec7db5ce4a298u,
     0x02cd6514b1c7d22au, 0x8cae9c3448e195dbu, 0xdb13642818d0d824u,
     0xba6bec07d580dba2u, 0x1fd535e0da538bedu, 0x2416009b57e0acc4u,
     0x50171aa31f631449u, 0x67409f2841c5191au, 0x73773fb44942840fu,
     0xe7c8f6a62d611f4eu, 0x1fabb5b23a796910u, 0xdcd6feb3ec5fc01eu,
     0xa6d2084cfa6f6f85u, 0xcc6d2f3eb679ea9eu, 0xa53a3cec2f99e754u,
     0xfac04020004e1144u, 0x7196a2339ea23439u, 0x320ea6cc91aef00du,
     0x74d8abecedafeed0u, 0xce9d1f57c9596d21u, 0xb1d1f544f530f297u,
     0xff1884d6807d8a51u, 0x217a0105cda3ddf7u, 0xd662a1da41566b4cu}};

const Pin kWdcFirstView = {
    0x1a2934365914ab8eu,
    {0x84a6ca3cee307ccbu, 0xfd7c1e4648877205u, 0xd11e19d31cebc5b9u,
     0xcf5105b5dcb3445cu, 0x406cf017058ecbf3u, 0x6f533bc2db249ac8u,
     0xfbe4f1a909acc73cu, 0x703bac85c7db0782u, 0xd227d0ca0a82008cu,
     0x2584a02c1ff261ceu, 0xef5235ed7ad16650u, 0x3883863eb98ca313u,
     0x8b25a74999baf4b7u, 0xc0626638c3346314u, 0x96a5085e5e65160du,
     0x81eff80ae625bd66u, 0x98412ed1dbfaabf0u, 0xa554c6d0e57396b4u,
     0xf5f9c39d5b8ea27eu, 0x451223fc6e18a15au, 0xb30ea00200d2842du,
     0x26839703a33bfde4u, 0xdae732eddda2e6afu, 0x9e589e644d193195u,
     0x36c50fde703e3f48u, 0x71f1bdc4553fb3f2u, 0xd1b70d0180edfac2u,
     0xb000dc0d185f4680u, 0xace5602c64c9560cu, 0xcf722f6ce1825a03u}};

const Pin kChemblBatch = {
    0x79ee60517747b863u,
    {0xbe8e0aaf451d94a0u, 0x1b4dd20758b6d735u, 0x6a3a2ca482bfca47u,
     0x275230a60b518180u, 0xfa76899023238cfau, 0x73a1a69e65c61867u,
     0x56629d084a118c21u, 0x294781e458d05466u, 0xb2db00ec1dd5c1c8u,
     0x432ea6171e0556f6u, 0x83eb4015b1836897u, 0xf5e2ac986105569au,
     0xa3ffef1210655500u, 0x69b826a075e0da33u, 0xdd34c0849be900abu}};

const Pin kChemblFirstView = {
    0x5193bfa59c20c2dbu,
    {0xa1cba22043d836beu, 0xbbe9c7efc7c310d3u, 0xf9ecb17a9e2f1926u,
     0xacf5a8014271b63du, 0x0f9a8858089255a1u, 0x4e897accc71765a3u,
     0xba585d54a87d5398u, 0xae7e17c896378e69u, 0xe48e533eae0ca595u,
     0xf78bccfa712bd6d9u, 0x96cc4c263735c6f0u, 0xd415e4d029acdd04u,
     0xe0ffca0ed2ba8784u, 0x2041b6f69bcb1f0fu, 0x2f785600413829d7u}};
TEST(AnswerPinTest, PerfbenchPortal) {
  OpenDataSpec spec;
  spec.num_tables = 480;
  spec.portion = 1;
  spec.num_queries = 50;
  ExpectPinned(GenerateOpenDataLike(spec), 30, 0x0da7a, kPortalBatch,
               kPortalFirstView);
}

TEST(AnswerPinTest, PerfbenchWdc) {
  WdcSpec spec;
  spec.versions_per_topic = 8;
  spec.num_filler_tables = 40;
  ExpectPinned(GenerateWdcLike(spec), 30, 0x3dc, kWdcBatch, kWdcFirstView);
}

TEST(AnswerPinTest, DefaultChembl) {
  ExpectPinned(GenerateChemblLike(ChemblSpec()), 15, 0xc4e3b1, kChemblBatch,
               kChemblFirstView);
}

}  // namespace
}  // namespace ver
