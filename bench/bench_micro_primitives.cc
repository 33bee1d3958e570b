// Primitive microbenchmarks (google-benchmark): the hot inner loops of the
// system — hash kernels, sketching, LSH lookup, hash join, row hashing,
// edit distance, CSV parsing and the 4C pass itself.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>

#include "core/distillation.h"
#include "discovery/engine.h"
#include "engine/materializer.h"
#include "table/csv.h"
#include "util/levenshtein.h"
#include "util/minhash.h"
#include "util/rng.h"
#include "util/check.h"
#include "util/simd.h"

namespace ver {
namespace {

std::vector<uint64_t> RandomHashes(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> out(n);
  for (int i = 0; i < n; ++i) {
    out[i] = static_cast<uint64_t>(rng.UniformInt(0, 1LL << 62));
  }
  return out;
}

void BM_MinHashCompute(benchmark::State& state) {
  MinHasher hasher(static_cast<int>(state.range(0)));
  std::vector<uint64_t> elements = RandomHashes(1000, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.Compute(elements));
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MinHashCompute)->Arg(64)->Arg(128)->Arg(256);

void BM_EstimateJaccard(benchmark::State& state) {
  MinHasher hasher(128);
  MinHashSignature a = hasher.Compute(RandomHashes(500, 1));
  MinHashSignature b = hasher.Compute(RandomHashes(500, 2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateJaccard(a, b));
  }
}
BENCHMARK(BM_EstimateJaccard);

void BM_BoundedLevenshtein(benchmark::State& state) {
  std::string a = "international airport of chicago";
  std::string b = "internotional airporf of chicago";
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BoundedLevenshtein(a, b, static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_BoundedLevenshtein)->Arg(1)->Arg(2)->Arg(4);

Table RandomTable(const std::string& name, int rows, int key_domain,
                  uint64_t seed) {
  Schema schema;
  schema.AddAttribute(Attribute{"k", ValueType::kString});
  schema.AddAttribute(Attribute{"v", ValueType::kInt});
  Table t(name, schema);
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    VER_CHECK_OK(t.AppendRow(
                     {Value::String("key" + std::to_string(rng.UniformInt(0, key_domain))),
                      Value::Int(rng.UniformInt(0, 1 << 20))}));
  }
  return t;
}

void BM_HashJoin(benchmark::State& state) {
  int rows = static_cast<int>(state.range(0));
  TableRepository repo;
  (void)repo.AddTable(RandomTable("l", rows, rows / 4, 1));
  (void)repo.AddTable(RandomTable("r", rows, rows / 4, 2));
  JoinGraph graph;
  graph.edges.push_back(JoinEdge{ColumnRef{0, 0}, ColumnRef{1, 0}, 1.0, 1.0});
  NormalizeJoinGraph(&graph, {});
  MaterializeOptions options;
  options.max_intermediate_rows = 100'000'000;
  for (auto _ : state) {
    // A fresh instance per iteration: a kept one would reuse its cached
    // build side and time only probe + projection.
    Materializer m(&repo);
    Result<Table> view = m.Materialize(
        graph, {ColumnRef{0, 1}, ColumnRef{1, 1}}, options, "v");
    benchmark::DoNotOptimize(view);
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_HashJoin)->Arg(1000)->Arg(10000);

void BM_RowHashing(benchmark::State& state) {
  Table t = RandomTable("t", static_cast<int>(state.range(0)), 1000, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.AllRowHashes());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RowHashing)->Arg(1000)->Arg(10000);

// The hash kernels of util/simd.h, and the row-hash path that stages cell
// hashes through them over all-valid int64, double and dictionary columns.
// `kernel` picks one of the seven (see the registrations below); the args
// are cells per call and tier (simd::Level).
void BM_SimdKernel(benchmark::State& state, int kernel) {
  const int64_t n = state.range(0);
  const auto level = static_cast<simd::Level>(state.range(1));
  const size_t len = static_cast<size_t>(n);
  std::vector<uint64_t> hashes = RandomHashes(static_cast<int>(n), 21);
  std::vector<uint64_t> acc(len, 0x726f7768617368ULL), out(len);
  std::vector<uint64_t> seeds = RandomHashes(128, 22);
  std::vector<uint64_t> slots(seeds.size(), ~uint64_t{0});
  std::vector<int64_t> ints(len);
  std::vector<double> doubles(len);
  ColumnData int_col, double_col, dict_col;
  for (size_t i = 0; i < len; ++i) {
    ints[i] = static_cast<int64_t>(hashes[i] % 100000);
    // Prices and measurements: mostly fractional, 1 in 100 integral.
    doubles[i] = static_cast<double>(hashes[i] % 99999) / 100.0;
    int_col.Append(CellView::Int(ints[i]));
    double_col.Append(CellView::Double(doubles[i]));
    dict_col.Append(
        CellView::String("value_" + std::to_string(hashes[i] % 500)));
  }
  dict_col.Seal();
  simd::ScopedSimdLevel forced(level);
  benchmark::DoNotOptimize(acc.data());
  benchmark::DoNotOptimize(out.data());
  benchmark::DoNotOptimize(slots.data());
  for (auto _ : state) {
    switch (kernel) {
      case 0:
        simd::CombineHashes(acc.data(), hashes.data(), len);
        break;
      case 1:
        simd::HashInt64Cells(ints.data(), len, out.data());
        break;
      case 2:
        simd::HashDoubleCells(doubles.data(), len, out.data());
        break;
      case 3:
        simd::MinHashUpdate(slots.data(), seeds.data(), seeds.size(),
                            hashes.data(), len);
        break;
      case 4:
        int_col.CombineCellHashesInto(acc.data(), n);
        break;
      case 5:
        double_col.CombineCellHashesInto(acc.data(), n);
        break;
      case 6:
        dict_col.CombineCellHashesInto(acc.data(), n);
        break;
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(simd::LevelName(level));
}

// 20 cells (a portal view's rows) and 256 (one staging block) per call, at
// every tier this CPU supports.
void SimdKernelArgs(benchmark::internal::Benchmark* b) {
  b->ArgNames({"n", "tier"});
  for (int n : {20, 256}) {
    for (int l = 0; l <= static_cast<int>(simd::DetectedLevel()); ++l) {
      b->Args({n, l});
    }
  }
}
BENCHMARK_CAPTURE(BM_SimdKernel, CombineHashes, 0)->Apply(SimdKernelArgs);
BENCHMARK_CAPTURE(BM_SimdKernel, HashInt64Cells, 1)->Apply(SimdKernelArgs);
BENCHMARK_CAPTURE(BM_SimdKernel, HashDoubleCells, 2)->Apply(SimdKernelArgs);
BENCHMARK_CAPTURE(BM_SimdKernel, MinHashUpdate128, 3)->Apply(SimdKernelArgs);
BENCHMARK_CAPTURE(BM_SimdKernel, RowHashInt64, 4)->Apply(SimdKernelArgs);
BENCHMARK_CAPTURE(BM_SimdKernel, RowHashDouble, 5)->Apply(SimdKernelArgs);
BENCHMARK_CAPTURE(BM_SimdKernel, RowHashDict, 6)->Apply(SimdKernelArgs);

void BM_CsvParse(benchmark::State& state) {
  Table t = RandomTable("t", static_cast<int>(state.range(0)), 1000, 4);
  std::string csv = WriteCsvString(t);
  for (auto _ : state) {
    Result<Table> parsed = ReadCsvString(csv, "t");
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() * csv.size());
}
BENCHMARK(BM_CsvParse)->Arg(1000)->Arg(10000);

// Args: views, and whether they are portal-shaped. Arbitrary views hold
// 20-60 random (key, value) rows each. Portal-shaped views are what a batch
// portal query distills: about 600 views of 12-22 rows, each a subset of
// one 22-row relation, so compatible and contained views collapse almost
// all of them, as C1 and C2 do on the portal.
void BM_Distill4C(benchmark::State& state) {
  const int num_views = static_cast<int>(state.range(0));
  const bool portal = state.range(1) != 0;
  Rng rng(9);
  std::vector<int> relation(22);
  std::iota(relation.begin(), relation.end(), 0);
  std::vector<View> views;
  for (int i = 0; i < num_views; ++i) {
    View v;
    v.id = i;
    Schema schema;
    schema.AddAttribute(Attribute{"k", ValueType::kString});
    schema.AddAttribute(Attribute{"val", ValueType::kInt});
    v.table = Table("view_" + std::to_string(i), schema);
    if (portal) {
      std::shuffle(relation.begin(), relation.end(), rng.engine());
      const int rows = static_cast<int>(rng.UniformInt(12, 22));
      for (int r = 0; r < rows; ++r) {
        const int key = relation[static_cast<size_t>(r)];
        VER_CHECK_OK(v.table.AppendRow({Value::String("key" +
                                                      std::to_string(key)),
                                        Value::Int(key % 4)}));
      }
    } else {
      const int rows = static_cast<int>(rng.UniformInt(20, 60));
      for (int r = 0; r < rows; ++r) {
        VER_CHECK_OK(v.table.AppendRow(
            {Value::String("key" + std::to_string(rng.UniformInt(0, 99))),
             Value::Int(rng.UniformInt(0, 3))}));
      }
    }
    views.push_back(std::move(v));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(DistillViews(views, DistillationOptions()));
  }
  state.SetItemsProcessed(state.iterations() * num_views);
}
BENCHMARK(BM_Distill4C)->Args({20, 0})->Args({100, 0})->Args({600, 1});

// The materializer's projection gather: 17 rows of a 10,000-row sealed
// dictionary column, with the remap scratch reused across calls.
void BM_GatherDict(benchmark::State& state) {
  Schema schema;
  schema.AddAttribute(Attribute{"s", ValueType::kString});
  Table table("t", schema);
  for (int i = 0; i < 10000; ++i) {
    VER_CHECK_OK(
        table.AppendRow({Value::String("value_" + std::to_string(i % 2000))}));
  }
  table.Seal();
  const ColumnData& src = table.column_data(0);
  Rng rng(5);
  std::vector<int64_t> rows;
  for (int i = 0; i < 17; ++i) rows.push_back(rng.UniformInt(0, 9999));
  ColumnData::GatherScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ColumnData::Gather(
        src, rows.data(), static_cast<int64_t>(rows.size()), &scratch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_GatherDict);

void BM_KeywordSearch(benchmark::State& state) {
  TableRepository repo;
  (void)repo.AddTable(RandomTable("a", 5000, 2000, 11));
  (void)repo.AddTable(RandomTable("b", 5000, 2000, 12));
  auto engine = DiscoveryEngine::Build(repo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine->SearchKeyword("key1234", KeywordTarget::kValues));
  }
}
BENCHMARK(BM_KeywordSearch);

void BM_ContainmentNeighbors(benchmark::State& state) {
  TableRepository repo;
  for (int t = 0; t < 20; ++t) {
    (void)repo.AddTable(
        RandomTable("t" + std::to_string(t), 1000, 300, 100 + t));
  }
  auto engine = DiscoveryEngine::Build(repo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Neighbors(ColumnRef{0, 0}, 0.8));
  }
}
BENCHMARK(BM_ContainmentNeighbors);

}  // namespace
}  // namespace ver

BENCHMARK_MAIN();
