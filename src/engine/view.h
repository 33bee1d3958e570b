// View: a materialized candidate PJ-view plus its provenance.

#ifndef VER_ENGINE_VIEW_H_
#define VER_ENGINE_VIEW_H_

#include <cstdint>
#include <vector>

#include "discovery/join_graph.h"
#include "table/table.h"

namespace ver {

/// A candidate PJ-view: the data, the join graph that produced it, and the
/// source columns each output attribute was projected from.
struct View {
  int64_t id = -1;
  Table table;
  JoinGraph graph;
  /// projection[i] is the source column backing output attribute i.
  std::vector<ColumnRef> projection;
  /// Ranking score inherited from the join graph (discovery-engine score).
  double score = 0.0;

  int64_t num_rows() const { return table.num_rows(); }

  /// True when this view was projected from exactly the given source
  /// columns (order-insensitive) — the ground-truth hit test.
  bool HasSameProjection(const std::vector<ColumnRef>& other) const;
};

}  // namespace ver

#endif  // VER_ENGINE_VIEW_H_
