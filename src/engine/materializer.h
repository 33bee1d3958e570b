// Materializer: executes project-join plans over the repository.
//
// The paper implements this component on pandas; here it is a small columnar
// executor in the selection-vector layout: the join state is one row-id
// vector per bound table, a hash join extends it by gathering every bound
// column through the probe's parent list, and projection gathers the
// source columns' cells (dictionary codes, not re-interned strings) with
// set semantics. Views stay in memory.

#ifndef VER_ENGINE_MATERIALIZER_H_
#define VER_ENGINE_MATERIALIZER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "discovery/join_graph.h"
#include "engine/view.h"
#include "pager/buffer_pool.h"
#include "storage/repository.h"
#include "util/flat_multimap.h"
#include "util/result.h"
#include "util/row_deduper.h"

namespace ver {

struct MaterializeOptions {
  /// Abort materialization when an intermediate exceeds this row count —
  /// a runaway join over a wrong path is a noisy-join-path artifact, not a
  /// useful view. Also bounds the rows held by the build-side cache.
  int64_t max_intermediate_rows = 2'000'000;
};

/// Executor bound to one repository, whose tables must not change while it
/// lives and which must outlive it. It keeps the hash-join build side of
/// every column it has joined into, keyed by ColumnRef, so the ranked
/// candidates of one query (which share most build columns) hash each
/// build column once; the cache is cleared whenever adding a build would
/// take its rows past the call's max_intermediate_rows. It also keeps its
/// join and projection scratch across calls.
///
/// Over a paged repository it pins each table's span of the snapshot map
/// (TableRepository::PinTable, one PinRange per table) the first time a
/// call touches the table and holds every pin until the instance is
/// destroyed, so a query's ~600 views pin each table once, not once per
/// view. The pinned set may overcommit the pool's budget while the
/// instance lives (the pool counts it in `pinned_overcommit`): a query of
/// the `portal_paged` benchmark pins about 18 64-KiB frames on average. A
/// paged table whose content fails TableRepository::CheckTable fails every
/// call that touches it with that IOError. Not thread-safe: use one
/// instance per query or thread.
class Materializer {
 public:
  explicit Materializer(const TableRepository* repo);

  /// Materializes `graph` and projects `projection` (one output attribute
  /// per entry). Output attribute names come from the source columns.
  Result<Table> Materialize(const JoinGraph& graph,
                            const std::vector<ColumnRef>& projection,
                            const MaterializeOptions& options,
                            std::string view_name);

  /// Materializes and wraps into a View (id assigned by the caller).
  Result<View> MaterializeView(const JoinGraph& graph,
                               const std::vector<ColumnRef>& projection,
                               const MaterializeOptions& options,
                               int64_t view_id);

  /// Rows held by the build-side cache: at most the last call's
  /// max_intermediate_rows, unless one build alone is larger.
  int64_t cached_build_rows() const { return cached_build_rows_; }

 private:
  /// Index of `table` among the bound tables, or -1.
  int BoundIndex(int32_t table) const;
  /// Binds `table` as a new join-state column holding `rows` (swapped in).
  void Bind(int32_t table, std::vector<int64_t>* rows);
  /// Keeps the join-state tuples listed (ascending) in keep_.
  void CompactToKeep();
  /// The build side of `col`: cached, or built and cached.
  const FlatU64MultiMap& BuildSide(const ColumnRef& col,
                                   int64_t max_cached_rows);
  /// Pins `table`'s map span into pin_ unless already pinned, then returns
  /// the repository's content check of the table.
  Status PinTable(int32_t table);

  const TableRepository* repo_;
  // Paged repositories only: every table pinned so far, released when the
  // instance is destroyed. pinned_ has one flag per table and stays empty
  // for a resident repository.
  PagePin pin_;
  std::vector<bool> pinned_;
  std::unordered_map<uint64_t, FlatU64MultiMap> builds_;  // by ColumnRef
  int64_t cached_build_rows_ = 0;

  // Join state: bound_rows_[i][t] = row of bound_tables_[i] in tuple t.
  // Vectors past bound_tables_.size() are spare capacity from earlier calls.
  std::vector<int32_t> bound_tables_;
  std::vector<std::vector<int64_t>> bound_rows_;
  // Scratch reused across calls: joined-edge flags, probe output (parent
  // tuple, build row), the kept-tuple list, a gather buffer, build keys /
  // tuple hashes, each projected column's join-state slot and storage, and
  // the projection gather's remap table.
  std::vector<bool> edge_done_;
  std::vector<int64_t> parents_;
  std::vector<int64_t> matches_;
  std::vector<int64_t> keep_;
  std::vector<int64_t> gathered_;
  std::vector<uint64_t> hashes_;
  RowDeduper deduper_;
  std::vector<int> slots_;
  std::vector<const ColumnData*> cols_;
  ColumnData::GatherScratch gather_scratch_;
};

}  // namespace ver

#endif  // VER_ENGINE_MATERIALIZER_H_
