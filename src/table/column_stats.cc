#include "table/column_stats.h"

#include <unordered_set>

namespace ver {

ColumnStats ComputeColumnStats(const Table& table, int col) {
  // Distinct non-null hashes: dictionary columns answer from cached entry
  // hashes; typed numeric columns scan without materializing Values.
  const ColumnData& data = table.column_data(col);
  const int64_t num_distinct = data.DistinctCount(/*count_null=*/false);
  return ComputeColumnStats(table, col, num_distinct);
}

ColumnStats ComputeColumnStats(const Table& table, int col,
                               int64_t num_distinct) {
  const ColumnData& data = table.column_data(col);
  ColumnStats stats;
  stats.num_rows = table.num_rows();
  stats.num_nulls = data.null_count();
  stats.num_distinct = num_distinct;
  int64_t ints = data.int_count();
  int64_t doubles = data.double_count();
  int64_t strings = data.string_count();
  if (strings >= ints && strings >= doubles && strings > 0) {
    stats.dominant_type = ValueType::kString;
  } else if (doubles >= ints && doubles > 0) {
    stats.dominant_type = ValueType::kDouble;
  } else if (ints > 0) {
    stats.dominant_type = ValueType::kInt;
  }
  return stats;
}

void ColumnStats::SaveTo(SerdeWriter* w) const {
  w->WriteI64(num_rows);
  w->WriteI64(num_nulls);
  w->WriteI64(num_distinct);
  w->WriteU8(static_cast<uint8_t>(dominant_type));
}

Status ColumnStats::LoadFrom(SerdeReader* r) {
  VER_RETURN_IF_ERROR(r->ReadI64(&num_rows));
  VER_RETURN_IF_ERROR(r->ReadI64(&num_nulls));
  VER_RETURN_IF_ERROR(r->ReadI64(&num_distinct));
  uint8_t type;
  VER_RETURN_IF_ERROR(r->ReadU8(&type));
  if (type > static_cast<uint8_t>(ValueType::kString)) {
    return Status::IOError("corrupt column stats: unknown value type " +
                           std::to_string(type));
  }
  dominant_type = static_cast<ValueType>(type);
  return Status::OK();
}

std::vector<uint64_t> DistinctValueHashes(const Table& table, int col) {
  return table.column_data(col).DistinctHashes();
}

std::vector<int> ApproximateKeyColumns(const Table& table,
                                       double min_uniqueness) {
  std::vector<int> keys;
  for (int c = 0; c < table.num_columns(); ++c) {
    ColumnStats stats = ComputeColumnStats(table, c);
    // A key must actually identify rows: require low nulls and uniqueness.
    if (stats.num_rows > 0 && stats.null_fraction() < 0.05 &&
        stats.uniqueness() >= min_uniqueness) {
      keys.push_back(c);
    }
  }
  return keys;
}

}  // namespace ver
