#include "core/join_graph_search.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_set>

namespace ver {

namespace {

// Cartesian-product iterator over per-attribute candidate lists.
class CombinationIterator {
 public:
  explicit CombinationIterator(const std::vector<size_t>& sizes)
      : sizes_(sizes), indices_(sizes.size(), 0) {
    done_ = sizes_.empty();
    for (size_t s : sizes_) {
      if (s == 0) done_ = true;
    }
  }

  bool done() const { return done_; }
  const std::vector<size_t>& indices() const { return indices_; }

  void Next() {
    for (size_t i = 0; i < indices_.size(); ++i) {
      if (++indices_[i] < sizes_[i]) return;
      indices_[i] = 0;
    }
    done_ = true;
  }

 private:
  std::vector<size_t> sizes_;
  std::vector<size_t> indices_;
  bool done_ = false;
};

}  // namespace

JoinGraphSearchResult SearchJoinGraphs(
    const DiscoveryEngine& engine,
    const std::vector<ColumnSelectionResult>& per_attribute,
    const JoinGraphSearchOptions& options) {
  JoinGraphSearchResult result;

  std::vector<size_t> sizes;
  sizes.reserve(per_attribute.size());
  for (const auto& attr : per_attribute) {
    sizes.push_back(attr.candidates.size());
  }

  // Non-joinable table pairs discovered so far (Alg. 5 lines 6-8).
  std::set<std::pair<int32_t, int32_t>> non_joinable;
  // Joinable table groups seen (funnel statistic).
  std::set<std::vector<int32_t>> joinable_groups;
  // Dedup of (graph, projection) candidates.
  std::unordered_set<std::string> seen_candidates;
  // Graph signature of each kept candidate: computed once, for the dedup
  // key and then the ranking tie-break.
  std::vector<std::string> signatures;

  for (CombinationIterator it(sizes); !it.done(); it.Next()) {
    if (result.num_combinations >= options.max_combinations) break;
    ++result.num_combinations;

    std::vector<ColumnRef> combo;
    combo.reserve(per_attribute.size());
    for (size_t a = 0; a < per_attribute.size(); ++a) {
      combo.push_back(per_attribute[a].candidates[it.indices()[a]].ref);
    }

    std::vector<int32_t> tables;
    for (const ColumnRef& c : combo) tables.push_back(c.table_id);
    std::sort(tables.begin(), tables.end());
    tables.erase(std::unique(tables.begin(), tables.end()), tables.end());

    // Prune combinations containing a known non-joinable table pair.
    bool pruned = false;
    for (size_t i = 0; i < tables.size() && !pruned; ++i) {
      for (size_t j = i + 1; j < tables.size(); ++j) {
        if (non_joinable.count({tables[i], tables[j]})) {
          pruned = true;
          break;
        }
      }
    }
    if (pruned) continue;

    std::vector<JoinGraph> graphs =
        engine.GenerateJoinGraphs(tables, options.max_hops);
    if (graphs.empty()) {
      // Record which pair is unreachable so future combinations skip it.
      for (size_t i = 0; i < tables.size(); ++i) {
        for (size_t j = i + 1; j < tables.size(); ++j) {
          if (engine
                  .GenerateJoinGraphs({tables[i], tables[j]},
                                      options.max_hops)
                  .empty()) {
            non_joinable.insert({tables[i], tables[j]});
          }
        }
      }
      continue;
    }

    joinable_groups.insert(tables);
    for (JoinGraph& g : graphs) {
      ViewCandidate cand;
      cand.projection = combo;
      cand.score = g.score;
      cand.graph = std::move(g);
      std::string signature = cand.graph.Signature();
      std::string key = signature + "|";
      std::vector<uint64_t> proj;
      for (const ColumnRef& c : cand.projection) proj.push_back(c.Encode());
      std::sort(proj.begin(), proj.end());
      for (uint64_t p : proj) {
        key += std::to_string(p);
        key.push_back(',');
      }
      if (seen_candidates.insert(std::move(key)).second) {
        result.candidates.push_back(std::move(cand));
        signatures.push_back(std::move(signature));
      }
    }
  }

  result.num_joinable_groups = static_cast<int64_t>(joinable_groups.size());
  result.num_join_graphs = static_cast<int64_t>(result.candidates.size());

  // Step 2: rank and materialize top-k. Sorting a permutation makes the
  // same comparisons std::sort would make on the candidates themselves, so
  // candidates with equal (score, signature) keep the same relative order.
  std::vector<size_t> order(result.candidates.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double sa = result.candidates[a].score;
    const double sb = result.candidates[b].score;
    if (sa != sb) return sa > sb;
    return signatures[a] < signatures[b];
  });
  std::vector<ViewCandidate> ranked;
  ranked.reserve(order.size());
  for (size_t i : order) ranked.push_back(std::move(result.candidates[i]));
  result.candidates = std::move(ranked);

  if (options.materialize_views) {
    result.views =
        MaterializeCandidates(engine.repo(), result.candidates, options,
                              &result.num_materialization_failures);
  }
  return result;
}

CandidateMaterializer::CandidateMaterializer(const TableRepository* repo,
                                             const MaterializeOptions& options)
    : materializer_(repo), options_(options) {}

bool CandidateMaterializer::Materialize(const ViewCandidate& candidate) {
  Result<View> view = materializer_.MaterializeView(
      candidate.graph, candidate.projection, options_, next_id_);
  if (!view.ok()) {
    ++num_failures_;
    return false;
  }
  if (view->table.num_rows() == 0) return false;  // empty joins are noise
  // Views with identical content are still distinct candidates (the 4C
  // stage is what merges compatible views); dedupe only exact
  // graph+projection duplicates produced by symmetric enumeration.
  std::string key = candidate.graph.Signature();
  for (const ColumnRef& c : candidate.projection) {
    key += "|" + std::to_string(c.Encode());
  }
  if (!seen_views_.insert(key).second) return false;
  ++next_id_;
  views_.push_back(std::move(view).value());
  return true;
}

std::vector<View> MaterializeCandidates(
    const TableRepository& repo, const std::vector<ViewCandidate>& candidates,
    const JoinGraphSearchOptions& options, int64_t* num_failures) {
  int64_t limit = options.expected_views <= 0
                      ? static_cast<int64_t>(candidates.size())
                      : std::min<int64_t>(options.expected_views,
                                          candidates.size());
  CandidateMaterializer incremental(&repo, options.materialize);
  for (int64_t i = 0; i < limit; ++i) {
    incremental.Materialize(candidates[i]);
  }
  if (num_failures != nullptr) *num_failures += incremental.num_failures();
  return incremental.TakeViews();
}

}  // namespace ver
