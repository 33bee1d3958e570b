// Ver: the end-to-end system facade (Algorithm 1).
//
// Owns the offline discovery index over a repository and runs the online
// pipeline per query: VIEW-SPECIFICATION -> COLUMN-SELECTION ->
// JOIN-GRAPH-SEARCH -> MATERIALIZER -> VIEW-DISTILLATION, with per-stage
// wall-clock timing (the component breakdown of Fig. 4b / Fig. 7). The
// human-facing VIEW-PRESENTATION stage is exposed as a session factory.

#ifndef VER_CORE_VER_H_
#define VER_CORE_VER_H_

#include <memory>
#include <vector>

#include "baselines/fast_topk.h"
#include "core/column_selection.h"
#include "core/distillation.h"
#include "core/join_graph_search.h"
#include "core/presentation.h"
#include "core/query.h"
#include "core/view_specification.h"
#include "discovery/engine.h"

namespace ver {

/// Everything the online pipeline is configured by. Each nested options
/// struct documents its own knobs (default, units, paper parameter).
struct VerConfig {
  /// Offline index construction + Appendix A discovery functions.
  DiscoveryOptions discovery;
  /// COLUMN-SELECTION (Algorithm 4): strategy, theta, clustering threshold.
  ColumnSelectionOptions selection;
  /// JOIN-GRAPH-SEARCH (Algorithm 5): rho, top-k, combination guard.
  JoinGraphSearchOptions search;
  /// VIEW-DISTILLATION (Algorithm 3 / 4C): key detection thresholds.
  DistillationOptions distillation;
  /// VIEW-PRESENTATION (Algorithm 2): bandit gamma, bootstrap pulls, seed.
  PresentationOptions presentation;
  /// Run VIEW-DISTILLATION after materialization (Algorithm 1 line 9).
  /// Default true; false reproduces the "no-4C" ablations (Table IV).
  bool run_distillation = true;
};

/// Per-stage wall-clock seconds (Fig. 4b components). Views stay in
/// memory, so the paper's "Get Views Time" is not a pipeline stage: the
/// Fig. 3 / Fig. 4b benches time reading the returned views back from CSV
/// themselves (bench/bench_common.h).
struct PipelineTiming {
  double column_selection_s = 0;   // CS
  double join_graph_search_s = 0;  // JGS (enumeration + ranking)
  double materialize_s = 0;        // M
  double four_c_s = 0;             // 4C runtime

  double total_s() const {
    return column_selection_s + join_graph_search_s + materialize_s +
           four_c_s;
  }
};

/// Everything one query produces.
struct QueryResult {
  std::vector<ColumnSelectionResult> selection;
  JoinGraphSearchResult search;  // funnel stats + ranked candidates
  std::vector<View> views;       // materialized candidate PJ-views
  DistillationResult distillation;
  PipelineTiming timing;
  /// Automatic-mode ranking (Algorithm 1 line 13): overlap-scored order of
  /// the distilled surviving views.
  std::vector<OverlapRankedView> automatic_ranking;
};

// The request/response API layer (src/api/): Execute is declared against
// these; include "api/discovery_request.h" etc. to construct them.
struct DiscoveryRequest;
struct DiscoveryResponse;
class QueryObserver;

/// End-to-end system bound to one repository.
///
/// `Execute(DiscoveryRequest, QueryObserver*)` is the one way into the
/// online pipeline (src/api/execute.cc): per-request knob overrides,
/// deadlines, cancellation, streaming view delivery and StopAfter early
/// termination all live there.
///
/// Thread-safety: after construction the object is immutable (it has no
/// mutable member), and every const method is safe to call from many
/// threads concurrently — the online pipeline keeps all its state on the
/// stack and the discovery engine's read path mutates nothing (see the
/// contract in discovery/engine.h). Concurrent Execute calls return results
/// identical to serial execution; tests/serving_test.cc guards that
/// contract.
class Ver {
 public:
  /// Builds the discovery index offline. `repo` must outlive this object.
  Ver(const TableRepository* repo, VerConfig config);

  /// Adopts an already-built engine — typically one restored with
  /// DiscoveryEngine::Load — so startup never forces a rebuild. The engine
  /// must have been built (or loaded) over `repo`; `config.discovery` is
  /// overwritten with the engine's own build options so the online
  /// pipeline sees the knobs the index was actually constructed with.
  Ver(const TableRepository* repo, VerConfig config,
      std::unique_ptr<DiscoveryEngine> engine);

  /// THE pipeline driver: runs one DiscoveryRequest (QBE or precomputed
  /// candidates, per-request knob overrides merged over config(), deadline,
  /// cancellation, StopAfter early termination) and streams typed events —
  /// stage started/finished, each view as soon as it survives 4C — to the
  /// optional observer. Validates the request first; an invalid request
  /// returns InvalidArgument without running any stage. Defined in
  /// src/api/execute.cc.
  DiscoveryResponse Execute(const DiscoveryRequest& request,
                            QueryObserver* observer = nullptr) const;

  /// Starts an interactive VIEW-PRESENTATION session over a query result.
  /// The result must outlive the session.
  std::unique_ptr<PresentationSession> StartSession(
      const QueryResult& result, const ExampleQuery& query) const;

  const DiscoveryEngine& engine() const { return *engine_; }
  const VerConfig& config() const { return config_; }

 private:
  const TableRepository* repo_;
  VerConfig config_;
  std::unique_ptr<DiscoveryEngine> engine_;
};

}  // namespace ver

#endif  // VER_CORE_VER_H_
