#include "discovery/join_path_index.h"

#include <algorithm>

#include "util/check.h"
#include "util/row_deduper.h"

namespace ver {

namespace {

// Lists stored back to back in one vector: list k is
// items[begin(k), ends[k]).
template <typename T>
struct FlatLists {
  std::vector<T> items;
  std::vector<size_t> ends;

  size_t size() const { return ends.size(); }
  size_t begin(size_t k) const { return k == 0 ? 0 : ends[k - 1]; }
  size_t length(size_t k) const { return ends[k] - begin(k); }
  const T* data(size_t k) const { return items.data() + begin(k); }
  T* data(size_t k) { return items.data() + begin(k); }
  void EndList() { ends.push_back(items.size()); }
  void Append(const T* first, size_t n) {
    items.insert(items.end(), first, first + n);
  }
  void Truncate(size_t n) {
    if (n >= size()) return;
    ends.resize(n);
    items.resize(n == 0 ? 0 : ends.back());
  }
  void clear() {
    items.clear();
    ends.clear();
  }
};

bool CanonicalLess(const JoinEdge& a, const JoinEdge& b) {
  return a.CanonicalEncoding() < b.CanonicalEncoding();
}

bool CanonicalEqual(const JoinEdge& a, const JoinEdge& b) {
  return a.CanonicalEncoding() == b.CanonicalEncoding();
}

// (min_id << 32) | max_id: the flat store's table-pair key. Table ids are
// nonnegative, so key order is (min_id, max_id) order.
uint64_t PairKey(int32_t a, int32_t b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint32_t>(b);
}

ColumnRef DecodeRef(uint64_t encoded) {
  ColumnRef ref;
  ref.table_id = static_cast<int32_t>(encoded >> 32);
  ref.column_index = static_cast<int32_t>(encoded & 0xffffffffULL);
  return ref;
}

}  // namespace

ptrdiff_t JoinPathIndex::FlatEdges::find(uint64_t key) const {
  const uint64_t* it = std::lower_bound(pair_keys.begin(), pair_keys.end(), key);
  if (it == pair_keys.end() || *it != key) return -1;
  return it - pair_keys.begin();
}

void JoinPathIndex::FlatEdges::SaveTo(SerdeWriter* w) const {
  pair_keys.SaveTo(w);
  offsets.SaveTo(w);
  left.SaveTo(w);
  right.SaveTo(w);
  containment.SaveTo(w);
  key_quality.SaveTo(w);
}

Status JoinPathIndex::FlatEdges::LoadFrom(SerdeReader* r, bool borrow) {
  VER_RETURN_IF_ERROR(pair_keys.LoadFrom(r, borrow, "pair keys"));
  VER_RETURN_IF_ERROR(offsets.LoadFrom(r, borrow, "edge offsets"));
  VER_RETURN_IF_ERROR(left.LoadFrom(r, borrow, "left refs"));
  VER_RETURN_IF_ERROR(right.LoadFrom(r, borrow, "right refs"));
  VER_RETURN_IF_ERROR(containment.LoadFrom(r, borrow, "edge containment"));
  VER_RETURN_IF_ERROR(key_quality.LoadFrom(r, borrow, "edge key quality"));

  // O(1) structural consistency — cheap enough to keep even under paging
  // (touches only the first/last offset pages).
  if (offsets.size() != pair_keys.size() + 1 || offsets[0] != 0 ||
      offsets[offsets.size() - 1] != left.size() ||
      right.size() != left.size() || containment.size() != left.size() ||
      key_quality.size() != left.size()) {
    return Status::IOError("corrupt join path index: array sizes disagree");
  }
  if (borrow) return Status::OK();
  // Resident loads vet the whole layout up front; paged loads defer to
  // edge_range() / EdgesBetween()'s per-record guards.
  for (size_t i = 0; i < num_pairs(); ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::IOError("corrupt join path index: offsets not monotonic");
    }
    if (i + 1 < num_pairs() && pair_keys[i] >= pair_keys[i + 1]) {
      return Status::IOError("corrupt join path index: pair keys not sorted");
    }
  }
  return Status::OK();
}

bool JoinPathIndex::ScoreEdge(const ColumnProfile& a, const ColumnProfile& b,
                              JoinEdge* edge) const {
  if (a.ref.table_id == b.ref.table_id) return false;  // self-joins out of scope
  if (a.stats.num_distinct < options_.min_distinct ||
      b.stats.num_distinct < options_.min_distinct) {
    return false;
  }
  // Join keys must be type-compatible: strings join strings, numbers join
  // numbers (int/double interchangeable).
  bool a_str = a.stats.dominant_type == ValueType::kString;
  bool b_str = b.stats.dominant_type == ValueType::kString;
  if (a_str != b_str) return false;

  double c_ab = ProfileContainment(a, b);
  double c_ba = ProfileContainment(b, a);
  double containment = std::max(c_ab, c_ba);
  if (containment < options_.containment_threshold) return false;

  edge->left = a.ref;
  edge->right = b.ref;
  edge->containment = containment;
  edge->key_quality = std::max(a.stats.uniqueness(), b.stats.uniqueness());
  return true;
}

void JoinPathIndex::CaptureColumnCounts(const TableRepository& repo) {
  table_num_columns_.clear();
  table_num_columns_.reserve(static_cast<size_t>(repo.num_tables()));
  for (int32_t t = 0; t < repo.num_tables(); ++t) {
    table_num_columns_.push_back(repo.table(t).num_columns());
  }
}

void JoinPathIndex::RebuildAdjacency() {
  adjacency_.clear();
  // The key array is tiny relative to the edge arrays, so walking it here
  // faults in only the key pages under a paged load.
  for (size_t i = 0; i < flat_edges_.num_pairs(); ++i) {
    uint64_t k = flat_edges_.pair_keys[i];
    int32_t a = static_cast<int32_t>(k >> 32);
    int32_t b = static_cast<int32_t>(k & 0xffffffffULL);
    adjacency_[a].push_back(b);
    adjacency_[b].push_back(a);
  }
  for (auto& [table, neighbors] : adjacency_) {
    (void)table;
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
  }
}

void JoinPathIndex::Build(const TableRepository& repo,
                          const std::vector<ColumnProfile>* profiles,
                          const SimilarityIndex& similarity,
                          const JoinPathOptions& options, ThreadPool* pool) {
  const std::vector<std::pair<int, int>> pairs = similarity.AllCandidatePairs();
  options_ = options;
  CaptureColumnCounts(repo);

  // Candidate scoring (the containment computations) dominates Build; the
  // sorted pair list splits into contiguous chunks, each emitting its edges
  // in pair order, and chunks concatenate in chunk order.
  const auto& ps = *profiles;
  std::vector<std::vector<JoinEdge>> local(
      std::max<size_t>(1, std::min(RecommendedChunks(pool), pairs.size())));
  ParallelFor(pool, pairs.size(), local.size(),
              [&](size_t c, size_t lo, size_t hi) {
                for (size_t k = lo; k < hi; ++k) {
                  JoinEdge edge;
                  if (ScoreEdge(ps[pairs[k].first], ps[pairs[k].second],
                                &edge)) {
                    local[c].push_back(edge);
                  }
                }
              });
  std::vector<JoinEdge> edges;
  for (const std::vector<JoinEdge>& chunk : local) {
    edges.insert(edges.end(), chunk.begin(), chunk.end());
  }
  VER_CHECK(edges.size() <= UINT32_MAX)
      << "join path index holds " << edges.size()
      << " edges; the snapshot's u32 edge offsets cap it at 2^32";
  num_joinable_column_pairs_ = static_cast<int64_t>(edges.size());

  // Group by table pair; the position tie-break keeps each pair's edges in
  // candidate-pair order.
  std::vector<std::pair<uint64_t, uint32_t>> order(edges.size());
  for (size_t k = 0; k < edges.size(); ++k) {
    order[k] = {PairKey(edges[k].left.table_id, edges[k].right.table_id),
                static_cast<uint32_t>(k)};
  }
  std::sort(order.begin(), order.end());
  flat_edges_ = FlatEdges{};
  flat_edges_.offsets.mut().push_back(0);
  for (size_t k = 0; k < order.size(); ++k) {
    const JoinEdge& e = edges[order[k].second];
    flat_edges_.left.mut().push_back(e.left.Encode());
    flat_edges_.right.mut().push_back(e.right.Encode());
    flat_edges_.containment.mut().push_back(e.containment);
    flat_edges_.key_quality.mut().push_back(e.key_quality);
    if (k + 1 == order.size() || order[k + 1].first != order[k].first) {
      flat_edges_.pair_keys.mut().push_back(order[k].first);
      flat_edges_.offsets.mut().push_back(static_cast<uint32_t>(k + 1));
    }
  }
  RebuildAdjacency();
}

void JoinPathIndex::SaveTo(SerdeWriter* w) const {
  // Options are NOT written here: they live once in the engine's options
  // section (the single source of truth) and are passed back to LoadFrom.
  w->WriteI64(num_joinable_column_pairs_);
  flat_edges_.SaveTo(w);
}

Status JoinPathIndex::LoadFrom(SerdeReader* r, const TableRepository& repo,
                               const JoinPathOptions& options, bool borrow) {
  int64_t num_pairs;
  VER_RETURN_IF_ERROR(r->ReadI64(&num_pairs));
  FlatEdges flat;
  VER_RETURN_IF_ERROR(flat.LoadFrom(r, borrow));
  auto valid_ref = [&repo](const ColumnRef& ref) {
    return ref.table_id >= 0 && ref.table_id < repo.num_tables() &&
           ref.column_index >= 0 &&
           ref.column_index < repo.table(ref.table_id).num_columns();
  };
  // Edges feed the materializer, which dereferences both endpoints against
  // the repository. Resident loads reject out-of-range addresses up front;
  // paged loads skip this O(edges) scan (it would fault in every edge
  // page) and EdgesBetween drops bad records at query time instead.
  if (!borrow) {
    for (size_t o = 0; o < static_cast<size_t>(flat.left.size()); ++o) {
      ColumnRef l = DecodeRef(flat.left[o]), rr = DecodeRef(flat.right[o]);
      if (!valid_ref(l) || !valid_ref(rr)) {
        return Status::IOError(
            "corrupt join path index: edge addresses nonexistent column " +
            l.ToString() + " / " + rr.ToString());
      }
    }
  }
  options_ = options;
  num_joinable_column_pairs_ = num_pairs;
  flat_edges_ = std::move(flat);
  CaptureColumnCounts(repo);
  RebuildAdjacency();
  return Status::OK();
}

void JoinPathIndex::AppendFlatEdge(uint32_t o,
                                   std::vector<JoinEdge>* out) const {
  JoinEdge e;
  e.left = DecodeRef(flat_edges_.left[o]);
  e.right = DecodeRef(flat_edges_.right[o]);
  auto ok = [this](const ColumnRef& ref) {
    return ref.table_id >= 0 &&
           static_cast<size_t>(ref.table_id) < table_num_columns_.size() &&
           ref.column_index >= 0 &&
           ref.column_index < table_num_columns_[ref.table_id];
  };
  // Query-time guard replacing the skipped paged validation scan: a
  // corrupt record is dropped, never handed to the materializer.
  if (!ok(e.left) || !ok(e.right)) return;
  e.containment = flat_edges_.containment[o];
  e.key_quality = flat_edges_.key_quality[o];
  out->push_back(e);
}

std::vector<JoinEdge> JoinPathIndex::EdgesBetween(int32_t table_a,
                                                  int32_t table_b) const {
  std::vector<JoinEdge> out;
  AppendEdgesBetween(table_a, table_b, &out);
  return out;
}

void JoinPathIndex::AppendEdgesBetween(int32_t table_a, int32_t table_b,
                                       std::vector<JoinEdge>* out) const {
  ptrdiff_t i = flat_edges_.find(PairKey(table_a, table_b));
  if (i < 0) return;
  auto [b, e] = flat_edges_.edge_range(static_cast<size_t>(i));
  for (uint32_t o = b; o < e; ++o) AppendFlatEdge(o, out);
}

std::vector<int32_t> JoinPathIndex::AdjacentTables(int32_t table) const {
  auto it = adjacency_.find(table);
  return it == adjacency_.end() ? std::vector<int32_t>{} : it->second;
}

struct JoinPathIndex::Scratch {
  FlatLists<int32_t> paths;     // table paths of the current chain link
  FlatLists<JoinEdge> choices;  // ExpandPath: column pairs per hop
  std::vector<size_t> pick;     // ExpandPath: the product's odometer
  FlatLists<JoinEdge> segment;  // join graphs of the current chain link
};

void JoinPathIndex::TablePaths(int32_t from, int32_t to, int max_hops,
                               Scratch* scratch) const {
  FlatLists<int32_t>& paths = scratch->paths;
  paths.clear();
  std::vector<int32_t> current{from};
  auto emit = [&] {
    paths.Append(current.data(), current.size());
    paths.items.push_back(to);
    paths.EndList();
  };
  // Visits `node` (!= to) with hops_left >= 1 edges still allowed.
  auto dfs = [&](auto& self, int32_t node, int hops_left) -> void {
    auto it = adjacency_.find(node);
    if (it == adjacency_.end()) return;
    const std::vector<int32_t>& neighbors = it->second;
    if (hops_left == 1) {
      // At the last hop only `to` can end a path.
      if (std::binary_search(neighbors.begin(), neighbors.end(), to)) emit();
      return;
    }
    for (int32_t next : neighbors) {
      if (next == to) {
        emit();
        continue;
      }
      // The path holds at most max_hops + 1 tables: a linear scan is the
      // cheapest on-path test.
      if (std::find(current.begin(), current.end(), next) != current.end()) {
        continue;
      }
      current.push_back(next);
      self(self, next, hops_left - 1);
      current.pop_back();
    }
  };
  dfs(dfs, from, max_hops);
}

void JoinPathIndex::ExpandPath(const int32_t* path, size_t num_tables,
                               Scratch* scratch) const {
  VER_DCHECK(num_tables >= 2);
  const size_t hops = num_tables - 1;
  FlatLists<JoinEdge>& choices = scratch->choices;
  choices.clear();
  const size_t cap =
      static_cast<size_t>(std::max(0, options_.max_graphs_per_path));
  size_t total = 1;
  for (size_t h = 0; h < hops; ++h) {
    AppendEdgesBetween(path[h], path[h + 1], &choices.items);
    choices.EndList();
    if (choices.length(h) == 0) return;  // path not realizable
    total = std::min(cap, total * choices.length(h));
  }
  // Capping after every hop keeps a lexicographic prefix of that hop's
  // product, so the capped product is the first `total` choice tuples in
  // lexicographic order, the last hop varying fastest.
  std::vector<size_t>& pick = scratch->pick;
  pick.assign(hops, 0);
  FlatLists<JoinEdge>& out = scratch->segment;
  for (size_t n = 0; n < total; ++n) {
    for (size_t h = 0; h < hops; ++h) {
      out.items.push_back(choices.data(h)[pick[h]]);
    }
    out.EndList();
    for (size_t h = hops; h-- > 0;) {
      if (++pick[h] < choices.length(h)) break;
      pick[h] = 0;
    }
  }
}

std::vector<JoinGraph> JoinPathIndex::GenerateJoinGraphs(
    const std::vector<int32_t>& tables, int max_hops) const {
  std::vector<int32_t> unique_tables = tables;
  std::sort(unique_tables.begin(), unique_tables.end());
  unique_tables.erase(
      std::unique(unique_tables.begin(), unique_tables.end()),
      unique_tables.end());

  std::vector<JoinGraph> graphs;
  if (unique_tables.empty()) return graphs;
  if (unique_tables.size() == 1) {
    JoinGraph g;
    NormalizeJoinGraph(&g, unique_tables);
    graphs.push_back(std::move(g));
    return graphs;
  }
  if (max_hops < 1) return graphs;  // no route may use an edge

  // Pairwise paths composed along a spanning chain t0-t1, t1-t2, ...
  // For tau = 2 (the common QBE case) this is exact path enumeration; for
  // tau > 2 it is a spanning-tree approximation of Steiner enumeration.
  // Graphs stay flat edge lists until every cap and composition is done.
  const size_t max_total =
      static_cast<size_t>(std::max(0, options_.max_total_graphs));
  Scratch scratch;
  FlatLists<JoinEdge> composed, next;
  for (size_t i = 0; i + 1 < unique_tables.size(); ++i) {
    TablePaths(unique_tables[i], unique_tables[i + 1], max_hops, &scratch);
    const FlatLists<int32_t>& paths = scratch.paths;
    if (paths.size() == 0) return graphs;  // pair not connectable within rho
    FlatLists<JoinEdge>& segment = scratch.segment;
    segment.clear();
    for (size_t p = 0; p < paths.size() && segment.size() < max_total; ++p) {
      ExpandPath(paths.data(p), paths.length(p), &scratch);
    }
    if (i == 0) {
      composed = std::move(segment);
      composed.Truncate(max_total);
      continue;
    }
    // Every (composed, segment) pair in lexicographic order, capped.
    next.clear();
    for (size_t g = 0; g < composed.size() && next.size() < max_total; ++g) {
      for (size_t t = 0; t < segment.size() && next.size() < max_total; ++t) {
        next.Append(composed.data(g), composed.length(g));
        next.Append(segment.data(t), segment.length(t));
        next.EndList();
      }
    }
    std::swap(composed, next);
  }

  // Normalize each graph, allocating it once at its final size: sort its
  // edges canonically and drop the duplicates that composing overlapping
  // segments introduces. Then dedupe by signature, keeping first
  // occurrences, and sort by score, ties by signature.
  std::vector<JoinGraph> all;
  all.reserve(composed.size());
  SignatureKeys keys;
  RowDeduper deduper;
  deduper.Reset(static_cast<int64_t>(composed.size()));
  auto same_signature = [&keys](int64_t a, int64_t b) {
    return keys.Compare(static_cast<size_t>(a), static_cast<size_t>(b)) == 0;
  };
  std::vector<size_t> kept;
  for (size_t k = 0; k < composed.size(); ++k) {
    JoinEdge* first = composed.data(k);
    JoinEdge* last = first + composed.length(k);
    std::sort(first, last, CanonicalLess);
    last = std::unique(first, last, CanonicalEqual);
    JoinGraph g;
    g.edges.assign(first, last);
    NormalizeJoinGraph(&g, unique_tables);
    keys.Append(g);
    if (deduper.Insert(SignatureHash(g), static_cast<int64_t>(k),
                       same_signature)) {
      kept.push_back(k);
    }
    all.push_back(std::move(g));
  }
  std::sort(kept.begin(), kept.end(), [&](size_t a, size_t b) {
    if (all[a].score != all[b].score) return all[a].score > all[b].score;
    return keys.Compare(a, b) < 0;
  });
  graphs.reserve(kept.size());
  for (size_t k : kept) graphs.push_back(std::move(all[k]));
  return graphs;
}

}  // namespace ver
