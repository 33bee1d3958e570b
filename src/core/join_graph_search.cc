#include "core/join_graph_search.h"

#include <algorithm>
#include <set>

#include "util/hash.h"
#include "util/row_deduper.h"

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

  const size_t arity = per_attribute.size();
  std::vector<size_t> sizes;
  sizes.reserve(arity);
  for (const auto& attr : per_attribute) {
    sizes.push_back(attr.candidates.size());
  }

  // Non-joinable table pairs discovered so far (Alg. 5 lines 6-8).
  std::set<std::pair<int32_t, int32_t>> non_joinable;
  // Joinable table groups seen (funnel statistic).
  std::set<std::vector<int32_t>> joinable_groups;
  // Step 1's join graphs in enumeration order, each with the index of its
  // column combination; combination c is combos[c * arity, (c + 1) * arity).
  std::vector<JoinGraph> graphs;
  std::vector<size_t> graph_combo;
  std::vector<ColumnRef> combos;
  std::vector<int32_t> tables;

  for (CombinationIterator it(sizes); !it.done(); it.Next()) {
    if (result.num_combinations >= options.max_combinations) break;
    ++result.num_combinations;

    const size_t combo_begin = combos.size();
    tables.clear();
    for (size_t a = 0; a < arity; ++a) {
      const ColumnRef& c = per_attribute[a].candidates[it.indices()[a]].ref;
      combos.push_back(c);
      tables.push_back(c.table_id);
    }
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
    if (pruned) {
      combos.resize(combo_begin);
      continue;
    }

    std::vector<JoinGraph> found =
        engine.GenerateJoinGraphs(tables, options.max_hops);
    if (found.empty()) {
      combos.resize(combo_begin);
      // Record which pair is unreachable so future combinations skip it.
      // A 2-table set is its own only pair, so its empty result answers it.
      for (size_t i = 0; i < tables.size(); ++i) {
        for (size_t j = i + 1; j < tables.size(); ++j) {
          if (tables.size() == 2 ||
              engine
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
    for (JoinGraph& g : found) {
      graphs.push_back(std::move(g));
      graph_combo.push_back(combo_begin / arity);
    }
  }

  // Dedupe (graph, projection) candidates, keeping first occurrences: a
  // duplicate has an equal signature and an equal multiset of projection
  // columns. Sorted projections and their hashes are per combination.
  const size_t num_combos = arity == 0 ? 0 : combos.size() / arity;
  std::vector<uint64_t> sorted_projections(combos.size());
  std::vector<uint64_t> projection_hashes(num_combos);
  for (size_t c = 0; c < num_combos; ++c) {
    uint64_t* p = sorted_projections.data() + c * arity;
    for (size_t a = 0; a < arity; ++a) p[a] = combos[c * arity + a].Encode();
    std::sort(p, p + arity);
    uint64_t h = 0;
    for (size_t a = 0; a < arity; ++a) h = HashCombine(h, p[a]);
    projection_hashes[c] = h;
  }
  SignatureKeys keys;
  for (const JoinGraph& g : graphs) keys.Append(g);
  RowDeduper deduper;
  deduper.Reset(static_cast<int64_t>(graphs.size()));
  auto same_candidate = [&](int64_t a, int64_t b) {
    const uint64_t* pa = sorted_projections.data() + graph_combo[a] * arity;
    const uint64_t* pb = sorted_projections.data() + graph_combo[b] * arity;
    return std::equal(pa, pa + arity, pb) &&
           keys.Compare(static_cast<size_t>(a), static_cast<size_t>(b)) == 0;
  };
  std::vector<size_t> kept;
  for (size_t k = 0; k < graphs.size(); ++k) {
    const uint64_t hash = HashCombine(SignatureHash(graphs[k]),
                                      projection_hashes[graph_combo[k]]);
    if (deduper.Insert(hash, static_cast<int64_t>(k), same_candidate)) {
      kept.push_back(k);
    }
  }

  result.num_joinable_groups = static_cast<int64_t>(joinable_groups.size());
  result.num_join_graphs = static_cast<int64_t>(kept.size());

  // Step 2: rank (MaterializeCandidates materializes). Sorting the kept
  // indices makes the same comparisons std::sort would make on the
  // candidates themselves, so candidates with equal (score, signature) keep
  // the same relative order.
  std::sort(kept.begin(), kept.end(), [&](size_t a, size_t b) {
    const double sa = graphs[a].score;
    const double sb = graphs[b].score;
    if (sa != sb) return sa > sb;
    return keys.Compare(a, b) < 0;
  });
  result.candidates.reserve(kept.size());
  for (size_t k : kept) {
    ViewCandidate cand;
    const ColumnRef* combo = combos.data() + graph_combo[k] * arity;
    cand.projection.assign(combo, combo + arity);
    cand.score = graphs[k].score;
    cand.graph = std::move(graphs[k]);
    result.candidates.push_back(std::move(cand));
  }
  return result;
}

CandidateMaterializer::CandidateMaterializer(const TableRepository* repo,
                                             const MaterializeOptions& options)
    : materializer_(repo), options_(options) {}

bool CandidateMaterializer::Materialize(const ViewCandidate& candidate) {
  Result<Schema> schema = materializer_.JoinAndDedup(
      candidate.graph, candidate.projection, options_);
  if (!schema.ok()) {
    ++num_failures_;
    return false;
  }
  const int64_t n = materializer_.num_rows();
  if (n == 0) return false;  // empty joins are noise
  Extent extent;
  extent.rows = row_ids_.size();
  for (size_t p = 0; p < candidate.projection.size(); ++p) {
    row_ids_.insert(row_ids_.end(), materializer_.kept_rows(p),
                    materializer_.kept_rows(p) + n);
  }
  extent.run_begin = runs_.size();
  runs_.insert(runs_.end(), materializer_.row_hashes(),
               materializer_.row_hashes() + n);
  const auto run = runs_.begin() + static_cast<std::ptrdiff_t>(
                                       extent.run_begin);
  std::sort(run, runs_.end());
  runs_.erase(std::unique(run, runs_.end()), runs_.end());
  extent.run_end = runs_.size();
  extents_.push_back(extent);

  View view;
  view.id = static_cast<int64_t>(views_.size());
  view.graph = candidate.graph;
  view.projection = candidate.projection;
  view.score = candidate.graph.score;
  view.row_set_signature = RowSetSignature(runs_.data() + extent.run_begin,
                                           runs_.data() + extent.run_end);
  view.pruned_name = "view_" + std::to_string(view.id);
  view.pruned_schema = std::move(schema).value();
  view.pruned_num_rows = n;
  views_.push_back(std::move(view));
  return true;
}

RowSetRun CandidateMaterializer::run(int i) const {
  const Extent& e = extents_[static_cast<size_t>(i)];
  return RowSetRun{runs_.data() + e.run_begin, runs_.data() + e.run_end,
                   views_[static_cast<size_t>(i)].row_set_signature};
}

const Table& CandidateMaterializer::Gather(int i) {
  View& view = views_[static_cast<size_t>(i)];
  if (!view.has_columns()) {
    const int64_t* rows =
        row_ids_.data() + extents_[static_cast<size_t>(i)].rows;
    view.table = materializer_.Gather(view.projection, rows,
                                      view.pruned_num_rows,
                                      std::move(view.pruned_schema),
                                      std::move(view.pruned_name));
    view.pruned_schema = Schema();
    view.pruned_name.clear();
    view.pruned_num_rows = 0;
  }
  return view.table;
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
  for (size_t i = 0; i < incremental.views().size(); ++i) {
    incremental.Gather(static_cast<int>(i));
  }
  if (num_failures != nullptr) *num_failures += incremental.num_failures();
  return incremental.TakeViews();
}

}  // namespace ver
