// View: a candidate PJ-view, its provenance and its row set.

#ifndef VER_ENGINE_VIEW_H_
#define VER_ENGINE_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "discovery/join_graph.h"
#include "table/table.h"

namespace ver {

/// A candidate PJ-view: the data, the join graph that produced it, and the
/// source columns each output attribute was projected from.
///
/// A view carries its cells in `table` if and only if it was delivered: in
/// a QueryResult, every view that survived 4C at some point, or every view
/// when distillation is off. A view that 4C pruned before it was delivered
/// holds no columns: `table` stays empty and the `pruned_*` fields keep its
/// name, schema and row count. name(), schema() and num_rows() read
/// whichever side holds them. MaterializeCandidates (or
/// Materializer::MaterializeView on `graph` and `projection`) rebuilds a
/// pruned view's cells.
struct View {
  int64_t id = -1;
  Table table;
  JoinGraph graph;
  /// projection[i] is the source column backing output attribute i.
  std::vector<ColumnRef> projection;
  /// Ranking score inherited from the join graph (discovery-engine score).
  double score = 0.0;
  /// RowSetSignature of the view's row-hash run: equal row sets give equal
  /// signatures. Set by the materializer; 0 on a view built by hand.
  uint64_t row_set_signature = 0;
  /// Name, schema and row count of a view without columns.
  std::string pruned_name;
  Schema pruned_schema;
  int64_t pruned_num_rows = 0;

  /// True when the view holds its cells (a view has at least one column).
  bool has_columns() const { return table.num_columns() > 0; }
  const std::string& name() const {
    return has_columns() ? table.name() : pruned_name;
  }
  const Schema& schema() const {
    return has_columns() ? table.schema() : pruned_schema;
  }
  int64_t num_rows() const {
    return has_columns() ? table.num_rows() : pruned_num_rows;
  }

  /// True when this view was projected from exactly the given source
  /// columns (order-insensitive) — the ground-truth hit test.
  bool HasSameProjection(const std::vector<ColumnRef>& other) const;
};

/// A view's row set H(V) (Algorithm 3 line 5): its row hashes in canonical
/// column order (Schema::CanonicalColumnOrder), sorted and deduplicated, so
/// run equality is set equality and a subset test is a merge walk.
struct RowSetRun {
  const uint64_t* begin = nullptr;
  const uint64_t* end = nullptr;
  uint64_t signature = 0;  // RowSetSignature(begin, end)

  size_t size() const { return static_cast<size_t>(end - begin); }
};

/// Seed of every row-hash chain (Table::RowHash uses the same one).
inline constexpr uint64_t kRowHashSeed = 0x726f7768617368ULL;

/// Order-insensitive signature of a run: sum and xor of its mixed
/// elements, combined with its length.
uint64_t RowSetSignature(const uint64_t* begin, const uint64_t* end);

/// Writes the run of `table` to `out` (room for num_rows() hashes) and
/// returns the run's end. `order` is scratch for the canonical order.
uint64_t* RowHashRun(const Table& table, uint64_t* out,
                     std::vector<int>* order);

}  // namespace ver

#endif  // VER_ENGINE_VIEW_H_
