// TableRepository: the catalog over a pathless table collection.
//
// Tables get stable integer ids; columns are addressed repository-wide by
// ColumnRef {table_id, column_index}. Every downstream component (discovery
// index, column selection, join graph search) speaks ColumnRef.

#ifndef VER_STORAGE_REPOSITORY_H_
#define VER_STORAGE_REPOSITORY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "pager/pager.h"
#include "table/table.h"
#include "util/result.h"

namespace ver {

/// Repository-wide column address.
struct ColumnRef {
  int32_t table_id = -1;
  int32_t column_index = -1;

  bool valid() const { return table_id >= 0 && column_index >= 0; }
  bool operator==(const ColumnRef& o) const {
    return table_id == o.table_id && column_index == o.column_index;
  }
  bool operator<(const ColumnRef& o) const {
    if (table_id != o.table_id) return table_id < o.table_id;
    return column_index < o.column_index;
  }
  /// Dense encoding for hashing / ordered maps.
  uint64_t Encode() const {
    return (static_cast<uint64_t>(static_cast<uint32_t>(table_id)) << 32) |
           static_cast<uint32_t>(column_index);
  }
  std::string ToString() const;
};

struct ColumnRefHash {
  size_t operator()(const ColumnRef& c) const {
    return static_cast<size_t>(c.Encode() * 0x9e3779b97f4a7c15ULL);
  }
};

/// Owning catalog of tables in a pathless collection.
class TableRepository {
 public:
  /// Adds a table; fails on duplicate table name. Returns the new table id.
  /// The table is sealed on the way in (sorted column dictionaries, ingest
  /// maps dropped) — every repository table is in serving layout.
  Result<int32_t> AddTable(Table table);

  int32_t num_tables() const { return static_cast<int32_t>(tables_.size()); }
  const Table& table(int32_t id) const { return tables_[id]; }
  Table& mutable_table(int32_t id) { return tables_[id]; }

  /// Id by exact table name, or error.
  Result<int32_t> FindTable(const std::string& name) const;

  /// Column display name: "table.attr" (or "table.#i" for unnamed columns).
  std::string ColumnDisplayName(const ColumnRef& ref) const;

  /// Attribute of a column ref.
  const Attribute& attribute(const ColumnRef& ref) const {
    return tables_[ref.table_id].schema().attribute(ref.column_index);
  }
  /// Typed storage of a column (the zero-copy read path).
  const ColumnData& column_data(const ColumnRef& ref) const {
    return tables_[ref.table_id].column_data(ref.column_index);
  }
  /// Legacy boundary accessor: materializes every cell as an owning Value.
  /// O(rows) copies — scan paths must use column_data() instead. Allowed
  /// (cold) call sites: one-shot assertions in tests and debug/CSV-boundary
  /// rendering; nothing under src/ may call it on a per-query path.
  std::vector<Value> column_values(const ColumnRef& ref) const;

  /// All column refs across all tables.
  std::vector<ColumnRef> AllColumns() const;

  int64_t TotalRows() const;
  int64_t TotalColumns() const;

  /// Loads every *.csv file of a directory as one table each.
  Status LoadDirectory(const std::string& dir_path);

  /// Writes every table as <dir>/<name>.csv.
  Status SaveDirectory(const std::string& dir_path) const;

  /// The pager runtime whose snapshot map this repository's tables borrow
  /// from, when loaded paged (null for resident repositories). Held by
  /// shared_ptr so the map outlives every borrower: queries and hot-swap
  /// drains extend its life by sharing the engine's reference. Setting a
  /// runtime marks every table's content unchecked (see CheckTable).
  const std::shared_ptr<PagerRuntime>& pager() const { return pager_; }
  void set_pager(std::shared_ptr<PagerRuntime> pager);

  /// OK when table `t`'s cells are safe to read. Resident tables were
  /// validated when they were built or loaded. The tables of a paged
  /// repository were not (a paged load skips the O(rows) scans), so the
  /// first call for such a table runs ColumnData::ValidateContent over its
  /// columns and keeps the verdict in one atomic per table; later calls
  /// cost one atomic load. A corrupt table returns an IOError naming the
  /// table and the column on every call. Thread-safe: racing first calls
  /// both validate the same immutable bytes.
  Status CheckTable(int32_t t) const;

  /// True when any table borrows mapped snapshot storage.
  bool paged() const {
    for (const Table& t : tables_) {
      if (t.paged()) return true;
    }
    return false;
  }

 private:
  std::vector<Table> tables_;
  std::unordered_map<std::string, int32_t> name_to_id_;
  std::shared_ptr<PagerRuntime> pager_;
  // Paged repositories only: one flag per table loaded with the runtime,
  // set once the table passed CheckTable. Shared by copies, whose tables
  // hold the same cells.
  std::shared_ptr<std::vector<std::atomic<bool>>> content_valid_;
};

}  // namespace ver

#endif  // VER_STORAGE_REPOSITORY_H_
