// Columnar in-memory table: the unit of a pathless table collection.
//
// Cells live in typed ColumnData columns (null bitmaps, typed payload
// vectors, dictionary-encoded strings — see table/column_data.h). The fast
// read path is cell()/cell_hash() over 16-byte CellViews; at() survives as
// the legacy boundary accessor and materializes an owning Value per call.

#ifndef VER_TABLE_TABLE_H_
#define VER_TABLE_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "table/column_data.h"
#include "table/schema.h"
#include "table/value.h"
#include "util/result.h"

namespace ver {

/// A named table with a (possibly noisy) schema and typed columnar storage.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema);
  /// Adopts prebuilt columns, one per schema attribute, each `num_rows`
  /// long (the gather-projection path).
  Table(std::string name, Schema schema, std::vector<ColumnData> columns,
        int64_t num_rows);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  const Schema& schema() const { return schema_; }
  Schema& mutable_schema() { return schema_; }

  int num_columns() const { return schema_.num_attributes(); }
  int64_t num_rows() const { return num_rows_; }

  /// Pre-allocates every column for `rows` total rows, so AppendRow never
  /// reallocates mid-load.
  void Reserve(int64_t rows);

  /// Appends one row; missing trailing cells become null, extra cells are an
  /// error (Definition 1 allows at most m values per tuple).
  Status AppendRow(std::vector<Value> row);

  /// Appends one row of cell views (zero-copy ingest path; string bytes are
  /// copied into the column dictionaries). Same padding/arity rules as
  /// AppendRow.
  Status AppendCells(const std::vector<CellView>& row);

  /// Legacy accessor: materializes an owning Value copy of one cell.
  /// Scan loops must use cell()/cell_hash()/column_data() instead. Allowed
  /// (cold) call sites: the storage-equivalence tests and
  /// bench_storage_scan's seed-layout rebuild (both deliberately exercise
  /// the materializing path as the reference), CSV/debug row rendering,
  /// and one-shot boundary reads in tests.
  Value at(int64_t row, int col) const { return columns_[col].value(row); }

  /// Zero-copy cell read; the view is invalidated by table mutation.
  CellView cell(int64_t row, int col) const { return columns_[col].cell(row); }

  /// Value-compatible hash of one cell without materializing it
  /// (dictionary columns answer from cached entry hashes).
  uint64_t cell_hash(int64_t row, int col) const {
    return columns_[col].CellHash(row);
  }

  /// Typed column storage (profiling / indexing fast paths).
  const ColumnData& column_data(int col) const { return columns_[col]; }

  /// Stable hash of one row (order-sensitive in schema column order).
  uint64_t RowHash(int64_t row) const;

  /// Hash of every row; the row-wise hash function H of Algorithm 3.
  std::vector<uint64_t> AllRowHashes() const;

  /// Distinct count of a column (null counts as a value).
  int64_t DistinctCount(int col) const;

  /// Projects to `col_indices` (in that order), optionally de-duplicating
  /// rows. PJ-views use distinct=true (set semantics). Dedup is row-hash
  /// based with exact cell comparison on hash collisions; the kept rows
  /// are then gathered column by column (ColumnData::Gather).
  Table Project(const std::vector<int>& col_indices, bool distinct,
                std::string new_name) const;

  /// Re-infers attribute types from the data (majority non-null cell type).
  /// O(columns): the per-type tallies are maintained by the columns.
  void InferColumnTypes();

  /// Sorts every column dictionary, drops ingest-only intern maps and
  /// capacity slack. Purely an internal re-layout — call once ingest is
  /// done (CSV reader and TableRepository::AddTable do). Appending later
  /// transparently unseals the touched columns.
  void Seal();

  /// Resident bytes across all column storage.
  size_t ApproxBytes() const;

  /// Columnar snapshot serialization: name, schema, then each column's
  /// memcpy-loadable sections (see ColumnData::SaveTo). `borrow` (a paged
  /// load) makes every column adopt its bulk arrays as borrowed extents of
  /// the mmapped snapshot instead of copying them.
  void SaveTo(SerdeWriter* w) const;
  Status LoadFrom(SerdeReader* r, bool borrow = false);

  /// First `max_rows` rows rendered as text, for debugging and examples.
  std::string ToString(int64_t max_rows = 10) const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<ColumnData> columns_;
  int64_t num_rows_ = 0;
};

}  // namespace ver

#endif  // VER_TABLE_TABLE_H_
