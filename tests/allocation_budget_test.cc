// Heap-call budgets of the per-view query path.
//
// A batch query materializes hundreds of small candidate views and distills
// them, so the heap calls made per view, not per row, set its cost. This
// binary replaces the global operator new/delete with counting wrappers
// and, over zero-noise queries on a generated open-data portal, counts per
// kept view:
//   - operator new calls made by M + 4C as Ver::Execute runs them
//     (CandidateMaterializer, then DistillRowSets over its row-hash runs,
//     gathering only the survivors),
//   - heap chunks held by each view 4C pruned, which keeps no columns,
// and, on the full-gather path tests and benches rebuild views with,
//   - operator new calls made by MaterializeCandidates,
//   - heap chunks still live in the views it returns,
//   - operator new calls made by DistillViews,
//   - operator new calls made by RankViewsByOverlap over every view, which
//     is what a request with distillation off ranks.
// The counts are deterministic for one compiler and standard library. Each
// budget below leaves headroom over the count measured with GCC 12 and
// libstdc++, and sits far below the count of the node-based layout it
// replaced, so a change that brings back per-row or per-array allocation
// fails here.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "api/discovery_request.h"
#include "api/discovery_response.h"
#include "baselines/fast_topk.h"
#include "core/distillation.h"
#include "core/join_graph_search.h"
#include "core/ver.h"
#include "workload/noisy_query.h"
#include "workload/open_data_gen.h"

namespace {

std::atomic<int64_t> g_allocs{0};
std::atomic<int64_t> g_frees{0};

void* CountedAlloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

void* CountedNew(std::size_t n, std::size_t align) {
  void* p = CountedAlloc(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

constexpr std::size_t kDefault = alignof(std::max_align_t);

}  // namespace

// Every replaceable form, so each allocation and its release go through
// the same malloc/free pair (also under sanitizers).
void* operator new(std::size_t n) { return CountedNew(n, kDefault); }
void* operator new[](std::size_t n) { return CountedNew(n, kDefault); }
void* operator new(std::size_t n, std::align_val_t a) {
  return CountedNew(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return CountedNew(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, kDefault);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedAlloc(n, kDefault);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return CountedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  CountedFree(p);
}

namespace ver {
namespace {

struct HeapCounts {
  int64_t allocs = g_allocs.load(std::memory_order_relaxed);
  int64_t frees = g_frees.load(std::memory_order_relaxed);
};

TEST(AllocationBudgetTest, CountingWrappersSeeEveryForm) {
  const HeapCounts before;
  delete new int(1);
  delete[] new int[4];
  std::vector<uint64_t> v(100);
  v.clear();
  v.shrink_to_fit();
  const HeapCounts after;
  EXPECT_EQ(after.allocs - before.allocs, 3);
  EXPECT_EQ(after.frees - before.frees, 3);
}

TEST(AllocationBudgetTest, PerViewHeapCallsOnAPortal) {
  OpenDataSpec spec;
  spec.num_tables = 480;
  spec.num_queries = 8;
  GeneratedDataset dataset = GenerateOpenDataLike(spec);
  const VerConfig config;
  Ver system(&dataset.repo, config);

  int64_t views = 0;
  int64_t pipeline_calls = 0;
  int64_t pruned_views = 0;
  int64_t pruned_chunks = 0;
  int64_t materialize_calls = 0;
  int64_t materialize_live = 0;
  int64_t distill_calls = 0;
  int64_t rank_calls = 0;
  for (size_t q = 0; q < dataset.queries.size(); ++q) {
    Result<ExampleQuery> query = MakeNoisyQuery(
        dataset.repo, dataset.queries[q], NoiseLevel::kZero, 3, 43 + q);
    ASSERT_TRUE(query.ok());
    DiscoveryResponse response =
        system.Execute(DiscoveryRequest::ForQuery(query.value()));
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();

    // M + 4C as the batch pipeline runs them, on the request's ranked
    // candidates with the same options.
    HeapCounts before;
    std::vector<View> pipeline_views;
    {
      CandidateMaterializer materialized(&dataset.repo,
                                         config.search.materialize);
      for (const ViewCandidate& cand : response.result.search.candidates) {
        materialized.Materialize(cand);
      }
      std::vector<RowSetRun> runs;
      runs.reserve(materialized.views().size());
      for (size_t i = 0; i < materialized.views().size(); ++i) {
        runs.push_back(materialized.run(static_cast<int>(i)));
      }
      DistillationResult distilled = DistillRowSets(
          materialized.views(), runs,
          [&](int i) -> const Table& { return materialized.Gather(i); },
          config.distillation);
      EXPECT_EQ(distilled.surviving, response.result.distillation.surviving);
      pipeline_views = materialized.TakeViews();
    }
    HeapCounts after;
    pipeline_calls += after.allocs - before.allocs;
    // A pruned view's chunks are what freeing it releases.
    for (View& v : pipeline_views) {
      if (v.has_columns()) continue;
      before = HeapCounts();
      { View dropped = std::move(v); }
      after = HeapCounts();
      pruned_chunks += after.frees - before.frees;
      ++pruned_views;
    }

    // The full-gather path: every view gathered, then distilled.
    int64_t failures = 0;
    before = HeapCounts();
    std::vector<View> materialized = MaterializeCandidates(
        dataset.repo, response.result.search.candidates, config.search,
        &failures);
    after = HeapCounts();
    ASSERT_EQ(materialized.size(), response.result.views.size());
    materialize_calls += after.allocs - before.allocs;
    materialize_live +=
        (after.allocs - before.allocs) - (after.frees - before.frees);
    views += static_cast<int64_t>(materialized.size());

    before = HeapCounts();
    DistillationResult distilled =
        DistillViews(materialized, config.distillation);
    after = HeapCounts();
    distill_calls += after.allocs - before.allocs;
    EXPECT_EQ(distilled.surviving, response.result.distillation.surviving);

    before = HeapCounts();
    std::vector<OverlapRankedView> ranked =
        RankViewsByOverlap(materialized, query.value());
    after = HeapCounts();
    rank_calls += after.allocs - before.allocs;
    EXPECT_EQ(ranked.size(), materialized.size());
  }
  ASSERT_GT(views, 1000);  // a few hundred views per query
  ASSERT_GT(pruned_views, views / 2);

  const double per_view = 1.0 / static_cast<double>(views);
  const double pipeline_calls_per_view = pipeline_calls * per_view;
  const double chunks_per_pruned_view =
      static_cast<double>(pruned_chunks) / static_cast<double>(pruned_views);
  const double materialize_calls_per_view = materialize_calls * per_view;
  const double live_chunks_per_view = materialize_live * per_view;
  const double distill_calls_per_view = distill_calls * per_view;
  const double rank_calls_per_view = rank_calls * per_view;
  std::printf(
      "%lld views: M + 4C %.2f operator new calls per view; %.2f live "
      "chunks per pruned view (%lld pruned)\n",
      static_cast<long long>(views), pipeline_calls_per_view,
      chunks_per_pruned_view, static_cast<long long>(pruned_views));
  std::printf(
      "%lld views: MaterializeCandidates %.2f operator new calls and %.2f "
      "live chunks per view; DistillViews %.2f calls per view; "
      "RankViewsByOverlap %.2f calls per view\n",
      static_cast<long long>(views), materialize_calls_per_view,
      live_chunks_per_view, distill_calls_per_view, rank_calls_per_view);
  RecordProperty("views", static_cast<int>(views));

  // Budgets over the counts measured on this fixture (8,604 views, 8,593
  // of them pruned). The pipeline gathers only the survivors: 6.63 calls
  // per view for M + 4C and 4.00 chunks per pruned view (schema, the
  // view's copies of its graph's two vectors and its projection), against
  // 9.61 calls (7.21 + 2.40) and 7.00 chunks per view when every view was
  // gathered.
  EXPECT_LE(pipeline_calls_per_view, 7.0);
  EXPECT_LE(chunks_per_pruned_view, 4.5);
  // The full-gather path: block-backed columns and flat row-hash runs:
  // 7.23 calls, 7.00 live chunks (columns vector, one block per column,
  // schema, the view's copies of its graph's two vectors and its
  // projection) and 2.40 distillation calls. The per-array columns and
  // per-row hash-set nodes they replaced: 67.70, 19.00 and 23.06.
  EXPECT_LE(materialize_calls_per_view, 10.0);
  EXPECT_LE(live_chunks_per_view, 7.5);
  EXPECT_LE(distill_calls_per_view, 3.5);
  // Overlap ranking: 0.02 calls per view with the examples
  // normalized once per call; the string set of every cell text it
  // replaced made 96.4.
  EXPECT_LE(rank_calls_per_view, 1.0);
}

}  // namespace
}  // namespace ver
