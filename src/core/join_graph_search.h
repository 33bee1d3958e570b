// JOIN-GRAPH-SEARCH (Algorithm 5): from per-attribute candidate columns to
// materialized candidate PJ-views.
//
// Step 1 (Join Graph Enumeration) walks the cartesian product of candidate
// columns, asks the discovery engine for join graphs over each combination's
// tables (<= rho hops) and caches non-joinable table pairs to prune the
// remaining product. Step 2 ranks (graph, projection) candidates by the
// engine score (SearchJoinGraphs) and materializes the top-k
// (MaterializeCandidates, or CandidateMaterializer one at a time), so
// Ver::Execute times enumeration and materialization apart.

#ifndef VER_CORE_JOIN_GRAPH_SEARCH_H_
#define VER_CORE_JOIN_GRAPH_SEARCH_H_

#include <vector>

#include "core/column_selection.h"
#include "core/query.h"
#include "discovery/engine.h"
#include "engine/materializer.h"

namespace ver {

struct JoinGraphSearchOptions {
  /// Maximum hops per inter-table route (the paper's rho; default 2).
  /// Units: join edges per route.
  int max_hops = 2;
  /// Materialize this many top-ranked candidates (Algorithm 5's top-k);
  /// <= 0 means all. Units: views; default -1.
  int expected_views = -1;
  /// Guard on the candidate column-combination product (Algorithm 5
  /// line 2's cartesian walk). Units: combinations; default 100000.
  /// No paper counterpart (implementation guard).
  int64_t max_combinations = 100000;
  MaterializeOptions materialize;
};

/// One rankable candidate: a join graph plus the projection columns chosen
/// from each attribute's candidates.
struct ViewCandidate {
  JoinGraph graph;
  std::vector<ColumnRef> projection;
  double score = 0.0;
};

struct JoinGraphSearchResult {
  /// Ranked candidates, best first.
  std::vector<ViewCandidate> candidates;

  // --- funnel statistics (Figs. 5/6) ---
  /// Column combinations whose tables are joinable within rho hops.
  int64_t num_joinable_groups = 0;
  /// Join graphs enumerated across all joinable groups.
  int64_t num_join_graphs = 0;
  /// Combinations enumerated before pruning.
  int64_t num_combinations = 0;
  /// Views whose materialization failed (blowups, corrupt paged tables),
  /// for diagnostics.
  /// SearchJoinGraphs leaves it 0; Ver::Execute fills it in after
  /// materializing.
  int64_t num_materialization_failures = 0;
};

/// Runs Algorithm 5's enumeration and ranking over the per-attribute
/// candidate columns.
JoinGraphSearchResult SearchJoinGraphs(
    const DiscoveryEngine& engine,
    const std::vector<ColumnSelectionResult>& per_attribute,
    const JoinGraphSearchOptions& options);

/// Step 2's materialization, callable separately: materializes the top
/// `expected_views` ranked candidates (all when <= 0), dropping empty
/// views. `num_failures` (optional) counts failures: blowups, and views
/// over a paged table whose content check fails.
std::vector<View> MaterializeCandidates(
    const TableRepository& repo, const std::vector<ViewCandidate>& candidates,
    const JoinGraphSearchOptions& options, int64_t* num_failures);

/// One-candidate-at-a-time materialization with the exact semantics of
/// MaterializeCandidates (id assignment, empty-view dropping, failure
/// counting) — MaterializeCandidates is implemented as a loop over
/// this class, so feeding the same ranked candidates incrementally yields
/// bit-identical views. The streaming StopAfter path of Ver::Execute uses it
/// to stop materializing as soon as enough views survive distillation.
class CandidateMaterializer {
 public:
  CandidateMaterializer(const TableRepository* repo,
                        const MaterializeOptions& options);

  /// Materializes one candidate. Returns true when the view was kept and
  /// appended to views(); false when it failed (counted in num_failures)
  /// or joined empty. Candidates come deduplicated from SearchJoinGraphs
  /// (equal signature and projection multiset), so none is checked here.
  bool Materialize(const ViewCandidate& candidate);

  const std::vector<View>& views() const { return views_; }
  /// Moves the kept views out; the instance must not be used afterwards.
  std::vector<View> TakeViews() { return std::move(views_); }
  int64_t num_failures() const { return num_failures_; }

 private:
  Materializer materializer_;
  MaterializeOptions options_;
  std::vector<View> views_;
  int64_t next_id_ = 0;
  int64_t num_failures_ = 0;
};

}  // namespace ver

#endif  // VER_CORE_JOIN_GRAPH_SEARCH_H_
