// Join path index: GENERATE-JOIN-GRAPHS(tables, rho) from the paper's
// Appendix A. Built offline from the similarity index's inclusion-dependency
// edges; queried online to connect candidate tables within rho hops.
//
// The edges live in one immutable flat store (sorted table-pair keys, u32
// offsets, structure-of-arrays edge records) — the snapshot's layout.
// Build() writes it, SaveTo() writes it out unchanged, and LoadFrom()
// adopts it (copied when resident, borrowed from the mmapped file when
// paged), so built, loaded and paged indexes run the same lookup code.

#ifndef VER_DISCOVERY_JOIN_PATH_INDEX_H_
#define VER_DISCOVERY_JOIN_PATH_INDEX_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "discovery/join_graph.h"
#include "discovery/profile.h"
#include "discovery/similarity_index.h"
#include "pager/paged_view.h"
#include "util/thread_pool.h"

namespace ver {

struct JoinPathOptions {
  /// Containment threshold above which a column pair is a join edge — the
  /// discovery-index threshold t of Fig. 8a (paper default 0.8; lowering
  /// it admits noisier join paths). Unitless, in [0, 1].
  double containment_threshold = 0.8;
  /// Join endpoints need at least this many distinct values. Units:
  /// distinct values; default 2.
  int64_t min_distinct = 2;
  /// Cap on alternative join graphs returned per table-path, guarding the
  /// cartesian blowup of alternate keys along multi-hop paths. Units:
  /// graphs; default 64. No paper counterpart (implementation guard).
  int max_graphs_per_path = 64;
  /// Cap on the join graphs of one GenerateJoinGraphs call, i.e. of one
  /// column combination's table set. A query makes one call per
  /// combination, so it can rank up to max_combinations (see
  /// JoinGraphSearchOptions) x max_total_graphs candidates. Units: graphs;
  /// default 4096. No paper counterpart (implementation guard).
  int max_total_graphs = 4096;
};

/// Table-level join connectivity with per-table-pair column-pair choices.
class JoinPathIndex {
 public:
  /// Discovers all joinable column pairs of `repo` and builds table
  /// adjacency. Table pairs come out ascending, each with its edges in
  /// candidate-pair order. With a pool, candidate-pair scoring splits
  /// across workers; per-chunk edges merge in chunk order, so the index is
  /// identical for any pool.
  void Build(const TableRepository& repo,
             const std::vector<ColumnProfile>* profiles,
             const SimilarityIndex& similarity, const JoinPathOptions& options,
             ThreadPool* pool = nullptr);

  /// All join graphs connecting `tables` where every inter-table route uses
  /// at most `max_hops` join edges; `max_hops` < 1 allows no route. With a
  /// single input table, returns the single-table graph. Results are
  /// deduplicated and sorted by score descending, then by Signature().
  std::vector<JoinGraph> GenerateJoinGraphs(
      const std::vector<int32_t>& tables, int max_hops) const;

  /// All joinable column pairs between two specific tables, in the order
  /// Build() discovered them.
  std::vector<JoinEdge> EdgesBetween(int32_t table_a, int32_t table_b) const;

  /// Total number of joinable column pairs discovered (Table I statistic).
  int64_t num_joinable_column_pairs() const {
    return num_joinable_column_pairs_;
  }

  /// Tables adjacent to `table` in the join connectivity graph.
  std::vector<int32_t> AdjacentTables(int32_t table) const;

  /// Snapshot serialization. SaveTo writes the flat store as it is, so the
  /// bytes are deterministic; the adjacency lists are derived data and are
  /// rebuilt on load. Resident loads validate every edge endpoint against
  /// `repo`; with a pager `binding` the arrays are adopted as borrowed mmap
  /// extents, the O(edges) scan is skipped, and EdgesBetween drops any edge
  /// whose decoded endpoints fall outside the repository instead.
  /// `options` comes from the engine's options section (persisted once).
  void SaveTo(SerdeWriter* w) const;
  Status LoadFrom(SerdeReader* r, const TableRepository& repo,
                  const JoinPathOptions& options,
                  const PagerBinding* binding = nullptr);

  /// Adds the flat edge store's paged extents to `pin` (no-op if resident).
  void PinInto(PagePin* pin) const { flat_edges_.PinInto(pin); }

 private:
  /// Immutable edge store: table-pair keys sorted ascending, per-pair edge
  /// slices addressed by offsets, edge fields as parallel arrays (owned
  /// after Build() or a resident load, borrowable straight out of the
  /// mmapped snapshot).
  struct FlatEdges {
    PagedView<uint64_t> pair_keys;    // (min_id << 32) | max_id, sorted
    PagedView<uint32_t> offsets;      // pair_keys.size() + 1 entries
    PagedView<uint64_t> left;         // ColumnRef::Encode per edge
    PagedView<uint64_t> right;
    PagedView<double> containment;
    PagedView<double> key_quality;

    size_t num_pairs() const { return static_cast<size_t>(pair_keys.size()); }
    /// Index of `key`, or -1.
    ptrdiff_t find(uint64_t key) const;
    /// Bounds-guarded edge slice [begin, end) for pair index `i`; empty on
    /// a corrupt offset pair (paged loads skip offset validation).
    std::pair<uint32_t, uint32_t> edge_range(size_t i) const {
      uint32_t b = offsets[i], e = offsets[i + 1];
      if (b > e || e > left.size()) return {0, 0};
      return {b, e};
    }
    void SaveTo(SerdeWriter* w) const;
    Status LoadFrom(SerdeReader* r, const PagerBinding* binding);
    void PinInto(PagePin* pin) const {
      pair_keys.PinInto(pin);
      offsets.PinInto(pin);
      left.PinInto(pin);
      right.PinInto(pin);
      containment.PinInto(pin);
      key_quality.PinInto(pin);
    }
  };

  FlatEdges flat_edges_;
  // Column counts per table, captured at Build/LoadFrom: lets EdgesBetween
  // range-check decoded edges without touching the repository (the
  // query-time guard replacing the skipped paged validation scan).
  std::vector<int32_t> table_num_columns_;
  std::map<int32_t, std::vector<int32_t>> adjacency_;
  int64_t num_joinable_column_pairs_ = 0;
  JoinPathOptions options_;

  // Decodes edge slot `o` and appends it if its endpoints are in range
  // (corrupt paged records are dropped, never dereferenced).
  void AppendFlatEdge(uint32_t o, std::vector<JoinEdge>* out) const;

  // Evaluates one candidate column pair; returns true and fills `edge` when
  // the pair is joinable. Pure with respect to index state, so candidate
  // scoring can run on worker threads.
  bool ScoreEdge(const ColumnProfile& a, const ColumnProfile& b,
                 JoinEdge* edge) const;
  void CaptureColumnCounts(const TableRepository& repo);
  void RebuildAdjacency();

  // EdgesBetween, appended to `out`.
  void AppendEdgesBetween(int32_t table_a, int32_t table_b,
                          std::vector<JoinEdge>* out) const;

  // Working storage of one GenerateJoinGraphs call (defined in the .cc).
  // It lives on the caller's stack: the index holds no mutable state, so
  // concurrent calls stay data-race-free.
  struct Scratch;

  // Sets scratch->paths to every simple table path from -> to (from != to)
  // with at most max_hops >= 1 edges, in depth-first order over ascending
  // neighbours.
  void TablePaths(int32_t from, int32_t to, int max_hops,
                  Scratch* scratch) const;

  // Appends the concrete join graphs of one table path (one column pair per
  // consecutive table pair) to scratch->segment: the cartesian product of
  // the hops' choices in lexicographic order, first hop most significant,
  // capped at options_.max_graphs_per_path.
  void ExpandPath(const int32_t* path, size_t num_tables,
                  Scratch* scratch) const;
};

}  // namespace ver

#endif  // VER_DISCOVERY_JOIN_PATH_INDEX_H_
