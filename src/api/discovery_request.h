// DiscoveryRequest / RequestOverrides: the unified per-request protocol of
// the online pipeline.
//
// The server's VerConfig freezes every knob at construction; a
// DiscoveryRequest carries one query (QBE examples, or precomputed candidate
// columns from the keyword/attribute specification variants) together with
// the knobs that should differ *for this request only*: RequestOverrides is
// a sparse overlay of the online-pipeline options (theta, rho, top-k,
// distillation on/off, ...) that is validated and merged over the base
// VerConfig, plus a deadline and an optional StopAfter(k) early-termination
// signal. Ver::Execute is the single driver consuming requests.

#ifndef VER_API_DISCOVERY_REQUEST_H_
#define VER_API_DISCOVERY_REQUEST_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/ver.h"
#include "util/status.h"

namespace ver {

/// Unambiguous canonical key of one query: attribute order and hints
/// preserved, example values sorted within each attribute, every string
/// length-prefixed. That is exactly the set of transformations the
/// pipeline is invariant under: per-attribute hit counts (Algorithm 4) and
/// overlap ranking both aggregate over examples order-independently, while
/// duplicate examples and attribute order do change results
/// (tests/serving_test.cc guards the invariance). DiscoveryRequest
/// ::CanonicalKey builds on it; the serving cache keys with it.
std::string CanonicalQueryKey(const ExampleQuery& query);

/// The absolute deadline `seconds` from now. time_point::max() (no
/// deadline) when `seconds` is not positive or lies past the clock's range,
/// so a huge relative deadline saturates instead of overflowing the clock's
/// integer ticks.
std::chrono::steady_clock::time_point DeadlineAfter(double seconds);

/// The cooperative stop check of the online pipeline: Cancelled when
/// `cancel` is non-null and set, else DeadlineExceeded once `deadline`
/// (time_point::max() = none) has passed, else OK. `next_stage` names the
/// step that was not started. Ver::Execute calls it before every stage (and
/// before every candidate of a StopAfter run), VerServer when it dequeues a
/// request; a stage that has started always runs to its end.
Status CheckDeadlineAndCancel(std::chrono::steady_clock::time_point deadline,
                              const std::atomic<bool>* cancel,
                              const char* next_stage);

/// Sparse per-request overlay of the online-pipeline knobs. An unset field
/// keeps the server's VerConfig value; a set field replaces it for this
/// request only. Offline/index knobs (DiscoveryOptions) are deliberately
/// absent — they are baked into the snapshot and cannot vary per request.
struct RequestOverrides {
  // --- COLUMN-SELECTION (Algorithm 4) ---
  std::optional<SelectionStrategy> selection_strategy;
  /// Keep clusters within the top-theta distinct score levels (>= 1).
  std::optional<int> theta;
  /// Jaccard threshold for clustering similarity edges, in [0, 1].
  std::optional<double> cluster_similarity_threshold;
  /// Edit-distance fallback for examples that match nothing.
  std::optional<bool> fuzzy_fallback;

  // --- JOIN-GRAPH-SEARCH (Algorithm 5) ---
  /// Maximum hops per inter-table route (the paper's rho, >= 1).
  std::optional<int> max_hops;
  /// Materialize this many top-ranked candidates; <= 0 means all.
  std::optional<int> expected_views;
  /// Guard on the candidate column-combination product (>= 1).
  std::optional<int64_t> max_combinations;

  // --- VIEW-DISTILLATION (Algorithm 3 / 4C) ---
  /// Run 4C at all (Algorithm 1 line 9); false = every view survives.
  std::optional<bool> run_distillation;
  /// Uniqueness ratio above which a column is a candidate key, in (0, 1].
  std::optional<double> key_uniqueness_threshold;
  /// Also try 2-column composite keys.
  std::optional<bool> composite_keys;

  /// Number of knobs (for per-knob usage counters, see ServerStats).
  static constexpr int kNumKnobs = 10;
  /// Stable human-readable knob name for counter i in [0, kNumKnobs).
  static const char* KnobName(int knob);
  /// Whether knob i is set on this request.
  bool knob_set(int knob) const;

  /// True when at least one knob is set.
  bool any() const;
  /// Number of set knobs.
  int count_set() const;

  /// OK, or InvalidArgument naming the out-of-range knob. Unset knobs are
  /// always valid.
  Status Validate() const;

  /// The base config with every set knob replaced — what the pipeline
  /// actually runs with.
  VerConfig MergedOver(const VerConfig& base) const;

  /// Appends an unambiguous canonical encoding of the *set* knobs (sorted
  /// fixed order, name=value), so two requests differing in any knob can
  /// never share a cache key.
  void AppendCanonicalKey(std::string* out) const;
};

/// One discovery request: the input (a QBE query, or precomputed candidate
/// columns plus the query used for overlap ranking), the per-request knobs,
/// and the execution controls (deadline, cancellation, early termination).
struct DiscoveryRequest {
  /// The QBE input — also the ranking query for candidate-based requests.
  ExampleQuery query;
  /// When `from_candidates` is true, COLUMN-SELECTION is skipped and these
  /// per-attribute candidates feed JOIN-GRAPH-SEARCH directly (the keyword /
  /// attribute specification variants).
  std::vector<ColumnSelectionResult> candidates;
  bool from_candidates = false;

  /// Per-request pipeline knobs, merged over the executing Ver's config.
  RequestOverrides overrides;

  /// Relative deadline in seconds from Execute/Submit entry. 0 (the
  /// default) = unset: no deadline under Execute, the server's
  /// default_deadline_s under VerServer::Submit. Negative = explicitly
  /// none: overrides the server default (`WithDeadline(-1)`). NaN and
  /// infinities are invalid.
  double deadline_s = 0;
  /// Absolute deadline; max() = none. When both deadlines are set the
  /// earlier one wins.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Cooperative cancellation flag, owned by the caller; checked between
  /// stages (and between candidates in a StopAfter run).
  const std::atomic<bool>* cancel = nullptr;

  /// Early termination: stop the pipeline once this many views survive
  /// distillation, skipping materialization/distillation of the remaining
  /// ranked candidates. <= 0 = run to completion. With StopAfter set,
  /// candidates are processed strictly in rank order one at a time, so the
  /// response's views are a prefix of the full run's ranked view sequence.
  int stop_after = 0;

  static DiscoveryRequest ForQuery(ExampleQuery query);
  static DiscoveryRequest ForCandidates(
      std::vector<ColumnSelectionResult> per_attribute,
      ExampleQuery query_for_ranking);

  /// Fluent setters for the common controls.
  DiscoveryRequest& StopAfter(int k) {
    stop_after = k;
    return *this;
  }
  DiscoveryRequest& WithDeadline(double seconds) {
    deadline_s = seconds;
    return *this;
  }
  DiscoveryRequest& WithOverrides(RequestOverrides o) {
    overrides = std::move(o);
    return *this;
  }

  /// OK, or InvalidArgument describing the defect: empty query, an
  /// attribute with zero examples, attribute_hints/columns size mismatch
  /// (all via ExampleQuery::Validate), an out-of-range override, a
  /// candidate-based request with no candidates, or a NaN or infinite
  /// deadline_s.
  Status Validate() const;

  /// Canonical cache key of everything that determines the *result*: the
  /// canonicalized query, the set overrides, and stop_after. Deadlines and
  /// cancellation are execution controls and excluded (only successful
  /// results are cached). Candidate-based requests get a distinct marker
  /// and are never cached by VerServer (their candidates are not encoded).
  std::string CanonicalKey() const;
};

}  // namespace ver

#endif  // VER_API_DISCOVERY_REQUEST_H_
