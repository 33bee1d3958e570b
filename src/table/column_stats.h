// Per-column statistics: uniqueness (key-ness), null fraction, distinct sets.

#ifndef VER_TABLE_COLUMN_STATS_H_
#define VER_TABLE_COLUMN_STATS_H_

#include <cstdint>
#include <vector>

#include "table/table.h"
#include "util/serde.h"

namespace ver {

struct ColumnStats {
  int64_t num_rows = 0;
  int64_t num_nulls = 0;
  int64_t num_distinct = 0;
  ValueType dominant_type = ValueType::kNull;

  /// distinct / non-null rows: 1.0 for a perfect key column.
  double uniqueness() const {
    int64_t non_null = num_rows - num_nulls;
    if (non_null <= 0) return 0.0;
    return static_cast<double>(num_distinct) / static_cast<double>(non_null);
  }
  double null_fraction() const {
    return num_rows == 0
               ? 0.0
               : static_cast<double>(num_nulls) / static_cast<double>(num_rows);
  }

  /// Snapshot serialization (stats ride inside persisted column profiles).
  void SaveTo(SerdeWriter* w) const;
  Status LoadFrom(SerdeReader* r);
};

/// Computes stats for one column.
ColumnStats ComputeColumnStats(const Table& table, int col);

/// The same stats, with the column's distinct non-null count supplied by a
/// caller that already holds its distinct hashes.
ColumnStats ComputeColumnStats(const Table& table, int col,
                               int64_t num_distinct);

/// Hashes of the distinct non-null values of a column, sorted ascending
/// (sketch input and exact set).
std::vector<uint64_t> DistinctValueHashes(const Table& table, int col);

/// Indices of columns whose uniqueness >= `min_uniqueness` — the paper's
/// "approximate key columns" used by 4C's contradiction detection.
std::vector<int> ApproximateKeyColumns(const Table& table,
                                       double min_uniqueness);

}  // namespace ver

#endif  // VER_TABLE_COLUMN_STATS_H_
