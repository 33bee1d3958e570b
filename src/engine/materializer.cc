#include "engine/materializer.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/check.h"

namespace ver {

Materializer::Materializer(const TableRepository* repo) : repo_(repo) {
  if (repo_->pager() != nullptr) {
    pin_ = PagePin(repo_->pager()->pool().get());
    pinned_.assign(static_cast<size_t>(repo_->num_tables()), false);
  }
}

Status Materializer::PinTable(int32_t table) {
  if (!pinned_[table]) {
    pinned_[table] = true;
    repo_->PinTable(table, &pin_);
  }
  return repo_->CheckTable(table);
}

int Materializer::BoundIndex(int32_t table) const {
  for (size_t i = 0; i < bound_tables_.size(); ++i) {
    if (bound_tables_[i] == table) return static_cast<int>(i);
  }
  return -1;
}

void Materializer::Bind(int32_t table, std::vector<int64_t>* rows) {
  const size_t slot = bound_tables_.size();
  bound_tables_.push_back(table);
  if (bound_rows_.size() <= slot) bound_rows_.emplace_back();
  bound_rows_[slot].swap(*rows);
}

void Materializer::CompactToKeep() {
  // keep_ ascends, so keep_[j] >= j and every column compacts in place.
  for (size_t t = 0; t < bound_tables_.size(); ++t) {
    std::vector<int64_t>& rows = bound_rows_[t];
    for (size_t j = 0; j < keep_.size(); ++j) rows[j] = rows[keep_[j]];
    rows.resize(keep_.size());
  }
}

const FlatU64MultiMap& Materializer::BuildSide(const ColumnRef& col,
                                               int64_t max_cached_rows) {
  auto it = builds_.find(col.Encode());
  if (it != builds_.end()) return it->second;
  // Bulk-hash the key column through the blocked kernel (dictionary
  // columns answer from cached entry hashes, never touching string bytes),
  // then load a flat open-addressing multimap. Null keys are masked out via
  // the validity bitmap — null keys never join — and each group keeps its
  // rows in ascending row order.
  const Table& table = repo_->table(col.table_id);
  const ColumnData& data = table.column_data(col.column_index);
  hashes_.resize(static_cast<size_t>(table.num_rows()));
  data.CellHashesInto(hashes_.data(), table.num_rows());
  FlatU64MultiMap build;
  build.Build(hashes_.data(), data.validity_words(), table.num_rows());
  // Bound the cache without a knob of its own: a rebuild is always
  // correct, so drop every cached build rather than grow past the
  // intermediate-row limit.
  const int64_t rows = static_cast<int64_t>(build.num_rows());
  if (cached_build_rows_ + rows > max_cached_rows) {
    builds_.clear();
    cached_build_rows_ = 0;
  }
  cached_build_rows_ += rows;
  return builds_.emplace(col.Encode(), std::move(build)).first->second;
}

Result<Schema> Materializer::JoinAndDedup(
    const JoinGraph& graph, const std::vector<ColumnRef>& projection,
    const MaterializeOptions& options) {
  num_kept_ = 0;
  if (projection.empty()) {
    return Status::InvalidArgument("projection must not be empty");
  }
  if (graph.edges.empty() && graph.tables.size() != 1) {
    return Status::InvalidArgument(
        "edgeless join graph must cover exactly one table");
  }

  // Anti-thrash residency accounting for paged repositories: pin each
  // table's span of the snapshot map the first time this instance touches
  // it — joins and the projection gather copy bytes out of it — and hold
  // the pins until the instance (one query) is destroyed. Concurrent
  // queries' faults then cannot evict this query's working set between its
  // views, and its ~600 views pin each table once, not once per view.
  // Correctness never depends on the pin (an evicted frame transparently
  // refaults). A paged load did not validate the tables' cells, so a table
  // whose content check fails (corrupt codes or offsets) fails the view
  // here, before any cell is read.
  if (!pinned_.empty()) {
    for (int32_t t : graph.tables) VER_RETURN_IF_ERROR(PinTable(t));
    for (const JoinEdge& e : graph.edges) {
      VER_RETURN_IF_ERROR(PinTable(e.left.table_id));
      VER_RETURN_IF_ERROR(PinTable(e.right.table_id));
    }
  }

  // Seed the join state with every row of the first edge's left table (or
  // of the single table of an edgeless graph), then BFS join edges whose
  // endpoint tables become reachable.
  bound_tables_.clear();
  const int32_t seed = graph.edges.empty() ? graph.tables.front()
                                           : graph.edges.front().left.table_id;
  gathered_.resize(static_cast<size_t>(repo_->table(seed).num_rows()));
  std::iota(gathered_.begin(), gathered_.end(), 0);
  Bind(seed, &gathered_);

  edge_done_.assign(graph.edges.size(), false);
  size_t remaining = graph.edges.size();
  while (remaining > 0) {
    // Pick an edge with at least one bound endpoint.
    int chosen = -1;
    for (size_t i = 0; i < graph.edges.size(); ++i) {
      if (edge_done_[i]) continue;
      if (BoundIndex(graph.edges[i].left.table_id) >= 0 ||
          BoundIndex(graph.edges[i].right.table_id) >= 0) {
        chosen = static_cast<int>(i);
        break;
      }
    }
    if (chosen < 0) {
      return Status::InvalidArgument(
          "join graph is disconnected; cannot materialize");
    }
    const JoinEdge& edge = graph.edges[chosen];
    edge_done_[chosen] = true;
    --remaining;

    const int left_idx = BoundIndex(edge.left.table_id);
    const int right_idx = BoundIndex(edge.right.table_id);
    const size_t num_tuples = bound_rows_[0].size();

    if (left_idx >= 0 && right_idx >= 0) {
      // Both sides bound: keep the tuples whose key cells agree.
      const ColumnData& lc = repo_->column_data(edge.left);
      const ColumnData& rc = repo_->column_data(edge.right);
      const std::vector<int64_t>& lrows = bound_rows_[left_idx];
      const std::vector<int64_t>& rrows = bound_rows_[right_idx];
      keep_.clear();
      for (size_t t = 0; t < num_tuples; ++t) {
        CellView lv = lc.cell(lrows[t]);
        if (!lv.is_null() && lv == rc.cell(rrows[t])) {
          keep_.push_back(static_cast<int64_t>(t));
        }
      }
      CompactToKeep();
      continue;
    }

    // One side bound: hash join, emitting (parent tuple, build row) pairs
    // in tuple order, each group's build rows ascending.
    const ColumnRef& bound_col = left_idx >= 0 ? edge.left : edge.right;
    const ColumnRef& new_col = left_idx >= 0 ? edge.right : edge.left;
    const std::vector<int64_t>& bound =
        bound_rows_[left_idx >= 0 ? left_idx : right_idx];
    const ColumnData& bound_data = repo_->column_data(bound_col);
    const ColumnData& new_data = repo_->column_data(new_col);
    const FlatU64MultiMap& build =
        BuildSide(new_col, options.max_intermediate_rows);

    parents_.clear();
    matches_.clear();
    // Probe in batches of 8: hash the batch's keys and prefetch their home
    // buckets first, so the dependent slot loads of the probe loop hit
    // cache instead of stalling one miss at a time.
    constexpr size_t kProbeBatch = 8;
    uint64_t probe_keys[kProbeBatch];
    for (size_t batch = 0; batch < num_tuples; batch += kProbeBatch) {
      const size_t batch_len = std::min(kProbeBatch, num_tuples - batch);
      for (size_t i = 0; i < batch_len; ++i) {
        const int64_t bound_row = bound[batch + i];
        if (bound_data.is_null(bound_row)) continue;
        probe_keys[i] = bound_data.CellHash(bound_row);
        build.PrefetchBucket(probe_keys[i]);
      }
      for (size_t i = 0; i < batch_len; ++i) {
        const int64_t bound_row = bound[batch + i];
        if (bound_data.is_null(bound_row)) continue;
        FlatU64MultiMap::Group group = build.Find(probe_keys[i]);
        if (group.size == 0) continue;
        CellView v = bound_data.cell(bound_row);
        for (size_t k = 0; k < group.size; ++k) {
          const int64_t r = group.begin[k];
          // Hash equality is not value equality; verify to be exact.
          if (!(new_data.cell(r) == v)) continue;
          parents_.push_back(static_cast<int64_t>(batch + i));
          matches_.push_back(r);
          if (static_cast<int64_t>(parents_.size()) >
              options.max_intermediate_rows) {
            return Status::OutOfRange(
                "intermediate join result exceeded max_intermediate_rows (" +
                std::to_string(options.max_intermediate_rows) + ")");
          }
        }
      }
    }
    // Extend: gather every bound column by parent, then bind the build rows
    // as the new table's column.
    for (size_t t = 0; t < bound_tables_.size(); ++t) {
      const std::vector<int64_t>& rows = bound_rows_[t];
      gathered_.resize(parents_.size());
      for (size_t j = 0; j < parents_.size(); ++j) {
        gathered_[j] = rows[parents_[j]];
      }
      bound_rows_[t].swap(gathered_);
    }
    Bind(new_col.table_id, &matches_);
  }

  // Project with set semantics. Resolve each projected column to its
  // join-state column and typed storage once.
  std::vector<Attribute> attributes;
  attributes.reserve(projection.size());
  slots_.clear();
  cols_.clear();
  for (const ColumnRef& p : projection) {
    const int idx = BoundIndex(p.table_id);
    if (idx < 0) {
      return Status::InvalidArgument("projection column " + p.ToString() +
                                     " not covered by join graph");
    }
    attributes.push_back(repo_->attribute(p));
    slots_.push_back(idx);
    cols_.push_back(&repo_->column_data(p));
  }
  Schema schema(std::move(attributes));
  // Tuple hashes stream column-major straight off the row-id columns
  // through the gathered combine kernel, visiting the columns in canonical
  // order, so each kept row's hash is the row hash 4C builds its row sets
  // from (RowHashRun over the gathered table). The shared RowDeduper then
  // confirms collisions cell by cell, keeping first occurrences.
  const int64_t n = static_cast<int64_t>(bound_rows_[0].size());
  row_hashes_.assign(static_cast<size_t>(n), kRowHashSeed);
  schema.CanonicalColumnOrder(&order_);
  for (int p : order_) {
    cols_[p]->CombineCellHashesInto(row_hashes_.data(),
                                    bound_rows_[slots_[p]].data(), n);
  }
  auto same_tuple = [&](int64_t a, int64_t b) {
    for (size_t p = 0; p < projection.size(); ++p) {
      const std::vector<int64_t>& rows = bound_rows_[slots_[p]];
      if (cols_[p]->cell(rows[a]).Compare(cols_[p]->cell(rows[b])) != 0) {
        return false;
      }
    }
    return true;
  };
  deduper_.Reset(n);
  keep_.clear();
  for (int64_t t = 0; t < n; ++t) {
    if (deduper_.Insert(row_hashes_[t], t, same_tuple)) keep_.push_back(t);
  }
  if (static_cast<int64_t>(keep_.size()) < n) {
    CompactToKeep();
    for (size_t j = 0; j < keep_.size(); ++j) {
      row_hashes_[j] = row_hashes_[keep_[j]];
    }
    row_hashes_.resize(keep_.size());
  }
  num_kept_ = static_cast<int64_t>(keep_.size());
  return schema;
}

Table Materializer::Gather(const std::vector<ColumnRef>& projection,
                           const int64_t* rows, int64_t num_rows,
                           Schema schema, std::string name) {
  std::vector<ColumnData> columns;
  columns.reserve(projection.size());
  for (size_t p = 0; p < projection.size(); ++p) {
    columns.push_back(ColumnData::Gather(repo_->column_data(projection[p]),
                                         rows + p * num_rows, num_rows,
                                         &gather_scratch_));
  }
  return Table(std::move(name), std::move(schema), std::move(columns),
               num_rows);
}

Result<Table> Materializer::Materialize(
    const JoinGraph& graph, const std::vector<ColumnRef>& projection,
    const MaterializeOptions& options, std::string view_name) {
  VER_ASSIGN_OR_RETURN(Schema schema,
                       JoinAndDedup(graph, projection, options));
  // Lay the kept rows out as Gather reads them: one block per column.
  const size_t n = static_cast<size_t>(num_kept_);
  gathered_.resize(projection.size() * n);
  for (size_t p = 0; p < projection.size(); ++p) {
    std::copy(kept_rows(p), kept_rows(p) + n, gathered_.begin() + p * n);
  }
  return Gather(projection, gathered_.data(), num_kept_, std::move(schema),
                std::move(view_name));
}

Result<View> Materializer::MaterializeView(
    const JoinGraph& graph, const std::vector<ColumnRef>& projection,
    const MaterializeOptions& options, int64_t view_id) {
  std::string name = "view_" + std::to_string(view_id);
  VER_ASSIGN_OR_RETURN(Table table,
                       Materialize(graph, projection, options, name));
  // The row-hash run of the kept rows: sort and dedup their hashes.
  std::sort(row_hashes_.begin(), row_hashes_.end());
  row_hashes_.erase(std::unique(row_hashes_.begin(), row_hashes_.end()),
                    row_hashes_.end());
  View view;
  view.id = view_id;
  view.table = std::move(table);
  view.graph = graph;
  view.projection = projection;
  view.score = graph.score;
  view.row_set_signature = RowSetSignature(
      row_hashes_.data(), row_hashes_.data() + row_hashes_.size());
  return view;
}

}  // namespace ver
