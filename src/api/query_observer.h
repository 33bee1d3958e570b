// QueryObserver: typed streaming events for one pipeline execution.
//
// Ver::Execute (and VerServer workers on its behalf) report progress through
// this interface: each pipeline stage as it starts and finishes (with its
// wall-clock cost, the Fig. 4b components), and every candidate view as soon
// as it survives 4C classification — so a client sees its first view at
// CS+JGS+first-materialization latency instead of waiting for the whole
// funnel to drain. Pair with DiscoveryRequest::StopAfter(k) to stop the
// pipeline once k views have been delivered.
//
// Threading: events fire synchronously on the thread running Execute. When a
// request is submitted through VerServer, that is a worker thread, so an
// observer shared across tickets must be thread-safe. Events stop before
// QueryTicket::Wait returns (OnFinished is the last event).
//
// Delivery semantics: a streamed view is the pipeline's belief *at delivery
// time*. In a StopAfter run, distillation is re-evaluated as views
// materialize, so a view delivered early can in rare cases be pruned by a
// later, larger view; the DiscoveryResponse is the final truth. In a full
// (non-StopAfter) run, delivered views are exactly the surviving set.

#ifndef VER_API_QUERY_OBSERVER_H_
#define VER_API_QUERY_OBSERVER_H_

#include "engine/view.h"
#include "util/status.h"

namespace ver {

/// The stages of Algorithm 1, in execution order. kColumnSelection is
/// skipped for requests built from precomputed candidates; kDistillation
/// only runs when distillation is enabled for the request.
enum class PipelineStage {
  kColumnSelection,
  kJoinGraphSearch,
  kMaterialization,
  /// Never emitted: views stay in memory, and the Fig. 3 / Fig. 4b benches
  /// time reading them back from CSV themselves. The enumerator remains
  /// only because perfbench/src/harness.cc names it.
  kVdIo,
  kDistillation,
  kRanking,
};

/// "COLUMN-SELECTION", "JOIN-GRAPH-SEARCH", ... (paper stage names).
const char* PipelineStageToString(PipelineStage stage);

/// Receiver of pipeline events. All callbacks default to no-ops, so an
/// observer overrides only what it cares about. Callbacks must not block for
/// long: they run inline on the pipeline thread and delay the query.
class QueryObserver {
 public:
  virtual ~QueryObserver() = default;

  /// The stage is about to run.
  virtual void OnStageStarted(PipelineStage /*stage*/) {}

  /// The stage finished; `elapsed_s` is its wall-clock cost in seconds
  /// (what PipelineTiming records for the same stage). The gather of the
  /// views 4C keeps runs inside the VIEW-DISTILLATION bracket but counts
  /// toward materialize_s, so that bracket's `elapsed_s` leaves it out.
  virtual void OnStageFinished(PipelineStage /*stage*/, double /*elapsed_s*/) {}

  /// `view` survived distillation (or materialization, when distillation is
  /// off for this request). `delivery_index` counts from 0 in delivery
  /// order; `elapsed_s` is seconds since Execute was entered — the
  /// time-to-this-view latency of a streaming request.
  virtual void OnViewDelivered(const View& /*view*/, int /*delivery_index*/,
                               double /*elapsed_s*/) {}

  /// Always the last event: the request finished with `status` (OK,
  /// InvalidArgument, DeadlineExceeded or Cancelled). The full
  /// DiscoveryResponse is the return value of Execute / QueryTicket::Wait.
  virtual void OnFinished(const Status& /*status*/) {}
};

}  // namespace ver

#endif  // VER_API_QUERY_OBSERVER_H_
