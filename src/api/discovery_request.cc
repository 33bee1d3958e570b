#include "api/discovery_request.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

namespace ver {

namespace {

// Length-prefixed append keeps keys unambiguous regardless of the bytes in
// the value (a value may contain any delimiter).
void AppendString(const std::string& s, std::string* out) {
  out->append(std::to_string(s.size()));
  out->push_back(':');
  out->append(s);
}

// Canonical knob order. Keep in sync with KnobName/knob_set/
// AppendCanonicalKey: the index is the public counter id in ServerStats.
constexpr const char* kKnobNames[RequestOverrides::kNumKnobs] = {
    "selection_strategy",
    "theta",
    "cluster_similarity_threshold",
    "fuzzy_fallback",
    "max_hops",
    "expected_views",
    "max_combinations",
    "run_distillation",
    "key_uniqueness_threshold",
    "composite_keys",
};

// Doubles canonicalize through their exact bit pattern: two requests whose
// thresholds differ in any bit must never share a cache key, and "%g"-style
// text would collapse nearby values.
std::string DoubleKey(double v) {
  static_assert(sizeof(double) == sizeof(uint64_t), "unexpected double size");
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return std::to_string(bits);
}

}  // namespace

std::string CanonicalQueryKey(const ExampleQuery& query) {
  std::string key;
  for (size_t a = 0; a < query.columns.size(); ++a) {
    key.push_back('A');
    AppendString(a < query.attribute_hints.size() ? query.attribute_hints[a]
                                                  : std::string(),
                 &key);
    std::vector<std::string> values = query.columns[a];
    std::sort(values.begin(), values.end());
    for (const std::string& v : values) {
      key.push_back('v');
      AppendString(v, &key);
    }
  }
  return key;
}

const char* RequestOverrides::KnobName(int knob) {
  if (knob < 0 || knob >= kNumKnobs) return "?";
  return kKnobNames[knob];
}

bool RequestOverrides::knob_set(int knob) const {
  switch (knob) {
    case 0:
      return selection_strategy.has_value();
    case 1:
      return theta.has_value();
    case 2:
      return cluster_similarity_threshold.has_value();
    case 3:
      return fuzzy_fallback.has_value();
    case 4:
      return max_hops.has_value();
    case 5:
      return expected_views.has_value();
    case 6:
      return max_combinations.has_value();
    case 7:
      return run_distillation.has_value();
    case 8:
      return key_uniqueness_threshold.has_value();
    case 9:
      return composite_keys.has_value();
    default:
      return false;
  }
}

bool RequestOverrides::any() const { return count_set() > 0; }

int RequestOverrides::count_set() const {
  int n = 0;
  for (int i = 0; i < kNumKnobs; ++i) {
    if (knob_set(i)) ++n;
  }
  return n;
}

Status RequestOverrides::Validate() const {
  if (theta.has_value() && *theta < 1) {
    return Status::InvalidArgument(
        "override theta must be >= 1 (got " + std::to_string(*theta) + ")");
  }
  if (cluster_similarity_threshold.has_value() &&
      (*cluster_similarity_threshold < 0.0 ||
       *cluster_similarity_threshold > 1.0)) {
    return Status::InvalidArgument(
        "override cluster_similarity_threshold must be in [0, 1] (got " +
        std::to_string(*cluster_similarity_threshold) + ")");
  }
  if (max_hops.has_value() && *max_hops < 1) {
    return Status::InvalidArgument(
        "override max_hops (rho) must be >= 1 (got " +
        std::to_string(*max_hops) + ")");
  }
  if (max_combinations.has_value() && *max_combinations < 1) {
    return Status::InvalidArgument(
        "override max_combinations must be >= 1 (got " +
        std::to_string(*max_combinations) + ")");
  }
  if (key_uniqueness_threshold.has_value() &&
      (*key_uniqueness_threshold <= 0.0 || *key_uniqueness_threshold > 1.0)) {
    return Status::InvalidArgument(
        "override key_uniqueness_threshold must be in (0, 1] (got " +
        std::to_string(*key_uniqueness_threshold) + ")");
  }
  // selection_strategy, fuzzy_fallback, expected_views (<=0 means "all"),
  // run_distillation and composite_keys accept their whole domain.
  return Status::OK();
}

VerConfig RequestOverrides::MergedOver(const VerConfig& base) const {
  VerConfig merged = base;
  if (selection_strategy.has_value()) {
    merged.selection.strategy = *selection_strategy;
  }
  if (theta.has_value()) merged.selection.theta = *theta;
  if (cluster_similarity_threshold.has_value()) {
    merged.selection.cluster_similarity_threshold =
        *cluster_similarity_threshold;
  }
  if (fuzzy_fallback.has_value()) {
    merged.selection.fuzzy_fallback = *fuzzy_fallback;
  }
  if (max_hops.has_value()) merged.search.max_hops = *max_hops;
  if (expected_views.has_value()) merged.search.expected_views = *expected_views;
  if (max_combinations.has_value()) {
    merged.search.max_combinations = *max_combinations;
  }
  if (run_distillation.has_value()) {
    merged.run_distillation = *run_distillation;
  }
  if (key_uniqueness_threshold.has_value()) {
    merged.distillation.key_uniqueness_threshold = *key_uniqueness_threshold;
  }
  if (composite_keys.has_value()) {
    merged.distillation.composite_keys = *composite_keys;
  }
  return merged;
}

void RequestOverrides::AppendCanonicalKey(std::string* out) const {
  // Only set knobs are encoded (name=value, fixed order), so an unset knob
  // and an explicitly-set default value get different keys — a harmless
  // extra cache miss, never an alias.
  if (selection_strategy.has_value()) {
    out->append(";selection_strategy=");
    out->append(std::to_string(static_cast<int>(*selection_strategy)));
  }
  if (theta.has_value()) {
    out->append(";theta=");
    out->append(std::to_string(*theta));
  }
  if (cluster_similarity_threshold.has_value()) {
    out->append(";cluster_similarity_threshold=");
    out->append(DoubleKey(*cluster_similarity_threshold));
  }
  if (fuzzy_fallback.has_value()) {
    out->append(";fuzzy_fallback=");
    out->append(*fuzzy_fallback ? "1" : "0");
  }
  if (max_hops.has_value()) {
    out->append(";max_hops=");
    out->append(std::to_string(*max_hops));
  }
  if (expected_views.has_value()) {
    out->append(";expected_views=");
    out->append(std::to_string(*expected_views));
  }
  if (max_combinations.has_value()) {
    out->append(";max_combinations=");
    out->append(std::to_string(*max_combinations));
  }
  if (run_distillation.has_value()) {
    out->append(";run_distillation=");
    out->append(*run_distillation ? "1" : "0");
  }
  if (key_uniqueness_threshold.has_value()) {
    out->append(";key_uniqueness_threshold=");
    out->append(DoubleKey(*key_uniqueness_threshold));
  }
  if (composite_keys.has_value()) {
    out->append(";composite_keys=");
    out->append(*composite_keys ? "1" : "0");
  }
}

DiscoveryRequest DiscoveryRequest::ForQuery(ExampleQuery query) {
  DiscoveryRequest request;
  request.query = std::move(query);
  return request;
}

DiscoveryRequest DiscoveryRequest::ForCandidates(
    std::vector<ColumnSelectionResult> per_attribute,
    ExampleQuery query_for_ranking) {
  DiscoveryRequest request;
  request.candidates = std::move(per_attribute);
  request.query = std::move(query_for_ranking);
  request.from_candidates = true;
  return request;
}

std::chrono::steady_clock::time_point DeadlineAfter(double seconds) {
  using Clock = std::chrono::steady_clock;
  if (!(seconds > 0)) return Clock::time_point::max();
  const Clock::time_point now = Clock::now();
  const std::chrono::duration<double> wanted(seconds);
  // Compared in double: past this point the tick count would overflow.
  if (wanted >= Clock::time_point::max() - now) {
    return Clock::time_point::max();
  }
  return now + std::chrono::duration_cast<Clock::duration>(wanted);
}

Status CheckDeadlineAndCancel(std::chrono::steady_clock::time_point deadline,
                              const std::atomic<bool>* cancel,
                              const char* next_stage) {
  if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled(std::string("query cancelled before ") +
                             next_stage);
  }
  if (deadline != std::chrono::steady_clock::time_point::max() &&
      std::chrono::steady_clock::now() >= deadline) {
    return Status::DeadlineExceeded(std::string("deadline passed before ") +
                                    next_stage);
  }
  return Status::OK();
}

Status DiscoveryRequest::Validate() const {
  if (!std::isfinite(deadline_s)) {
    return Status::InvalidArgument("deadline_s must be finite (got " +
                                   std::to_string(deadline_s) + ")");
  }
  if (from_candidates) {
    if (candidates.empty()) {
      return Status::InvalidArgument(
          "candidate-based request carries no candidate columns");
    }
  } else {
    VER_RETURN_IF_ERROR(query.Validate());
  }
  return overrides.Validate();
}

std::string DiscoveryRequest::CanonicalKey() const {
  std::string key = from_candidates ? "c|" : "q|";
  key += CanonicalQueryKey(query);
  key += "|o:";
  overrides.AppendCanonicalKey(&key);
  if (stop_after > 0) {
    key += "|stop:";
    key += std::to_string(stop_after);
  }
  return key;
}

}  // namespace ver
