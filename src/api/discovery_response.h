// DiscoveryResponse: everything Ver::Execute hands back for one
// DiscoveryRequest — an overall status, the pipeline artifacts (funnel
// statistics, per-stage timings, materialized views, distillation verdicts,
// ranked views), and the streaming/early-termination accounting.

#ifndef VER_API_DISCOVERY_RESPONSE_H_
#define VER_API_DISCOVERY_RESPONSE_H_

#include "core/ver.h"
#include "util/status.h"

namespace ver {

/// Outcome of one executed DiscoveryRequest.
struct DiscoveryResponse {
  /// OK, or InvalidArgument (request rejected before any stage ran),
  /// DeadlineExceeded / Cancelled (stopped at a stage or candidate
  /// boundary). `result` holds no partial data when the status is not OK.
  Status status;

  /// The pipeline artifacts: selection, search funnel stats
  /// (`result.search`), materialized views, distillation, per-stage
  /// timings (`result.timing`), and the automatic overlap ranking
  /// (`result.automatic_ranking`).
  QueryResult result;

  /// True when StopAfter(k) fired: the pipeline stopped with ranked
  /// candidates still unprocessed. The views present are a prefix of the
  /// full run's ranked view sequence.
  bool early_terminated = false;

  /// Number of OnViewDelivered events fired (== views streamed to the
  /// observer; for a full run this equals the surviving-view count).
  int views_delivered = 0;

  /// Wall-clock seconds spent inside Execute (stage timings in
  /// `result.timing` cover the stages only; this includes everything).
  double total_s = 0;
};

}  // namespace ver

#endif  // VER_API_DISCOVERY_RESPONSE_H_
