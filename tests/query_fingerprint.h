// Shared test helper: a deterministic fingerprint of a QueryResult.
//
// Renders every deterministic part of a result as one string; excludes only
// wall-clock timings. Two results with equal fingerprints went through the
// same selection, search funnel, views, distillation and ranking — the
// bit-identity bar used by the serving and snapshot tests.
//
// A view that carries its cells (it was delivered) is rendered cell-exact.
// A view 4C pruned before delivery holds no cells; Fingerprint(result)
// renders its graph signature, row count and row-set signature, which
// still pin its content. Fingerprint(result, repo) rebuilds each such view
// from its graph and projection, checks the rebuild against the stored row
// count and signature, and renders every view cell-exact.

#ifndef VER_TESTS_QUERY_FINGERPRINT_H_
#define VER_TESTS_QUERY_FINGERPRINT_H_

#include <cstdio>
#include <string>

#include "core/ver.h"
#include "util/check.h"

namespace ver {

namespace fingerprint_internal {

inline std::string CellExact(const View& v) {
  return v.graph.Signature() + "#" + v.table.ToString(v.table.num_rows()) +
         ";";
}

inline std::string RowSetOnly(const View& v) {
  char signature[24];
  std::snprintf(signature, sizeof(signature), "%016llx",
                static_cast<unsigned long long>(v.row_set_signature));
  return v.graph.Signature() + "#" + std::to_string(v.num_rows()) + "@" +
         signature + ";";
}

// Renders every view with `render_pruned` for the views without cells.
template <typename RenderPruned>
std::string Render(const QueryResult& r, const RenderPruned& render_pruned) {
  std::string out;
  for (const ColumnSelectionResult& sel : r.selection) {
    out += "sel:";
    out += std::to_string(sel.total_columns_before_clustering) + ";";
    for (const ScoredColumn& c : sel.candidates) {
      out += std::to_string(c.ref.Encode()) + "*" +
             std::to_string(c.example_hits) + ",";
    }
  }
  out += "|funnel:" + std::to_string(r.search.num_combinations) + "," +
         std::to_string(r.search.num_joinable_groups) + "," +
         std::to_string(r.search.num_join_graphs) + "," +
         std::to_string(r.search.num_materialization_failures);
  out += "|cands:";
  for (const ViewCandidate& c : r.search.candidates) {
    out += c.graph.Signature() + "@" + std::to_string(c.score) + ";";
  }
  out += "|views:";
  for (const View& v : r.views) {
    out += v.has_columns() ? CellExact(v) : render_pruned(v);
  }
  out += "|distill:" + std::to_string(r.distillation.num_compatible_pairs) +
         "," + std::to_string(r.distillation.num_contained_pairs) + "," +
         std::to_string(r.distillation.num_complementary_pairs) + "," +
         std::to_string(r.distillation.num_contradictory_pairs) + ":";
  for (int s : r.distillation.surviving) out += std::to_string(s) + ",";
  out += "|rank:";
  for (const OverlapRankedView& rv : r.automatic_ranking) {
    out += std::to_string(rv.view_index) + "*" + std::to_string(rv.overlap) +
           ";";
  }
  return out;
}

}  // namespace fingerprint_internal

inline std::string Fingerprint(const QueryResult& r) {
  return fingerprint_internal::Render(r, fingerprint_internal::RowSetOnly);
}

/// Fingerprint with every pruned view rebuilt over `repo` (the repository
/// the result was computed on), so the string is the cell-exact one of a
/// result whose views all carry cells. Aborts when a rebuild fails or its
/// row count or row-set signature differs from the stored one.
inline std::string Fingerprint(const QueryResult& r,
                               const TableRepository& repo) {
  Materializer materializer(&repo);
  return fingerprint_internal::Render(r, [&](const View& v) {
    Result<View> rebuilt = materializer.MaterializeView(
        v.graph, v.projection, MaterializeOptions(), v.id);
    VER_CHECK_OK(rebuilt.status());
    VER_CHECK(rebuilt->num_rows() == v.num_rows());
    VER_CHECK(rebuilt->row_set_signature == v.row_set_signature);
    return fingerprint_internal::CellExact(rebuilt.value());
  });
}

}  // namespace ver

#endif  // VER_TESTS_QUERY_FINGERPRINT_H_
