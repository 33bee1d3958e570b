#include "storage/repository.h"

#include <algorithm>
#include <filesystem>

#include "table/csv.h"

namespace ver {

std::string ColumnRef::ToString() const {
  return "col(" + std::to_string(table_id) + "," +
         std::to_string(column_index) + ")";
}

Result<int32_t> TableRepository::AddTable(Table table) {
  if (table.name().empty()) {
    return Status::InvalidArgument("table must have a name");
  }
  auto [it, inserted] =
      name_to_id_.emplace(table.name(), static_cast<int32_t>(tables_.size()));
  if (!inserted) {
    return Status::AlreadyExists("table '" + table.name() +
                                 "' already in repository");
  }
  table.Seal();
  tables_.push_back(std::move(table));
  return it->second;
}

void TableRepository::set_pager(std::shared_ptr<PagerRuntime> pager) {
  pager_ = std::move(pager);
  content_valid_.reset();
  if (pager_ != nullptr) {
    content_valid_ =
        std::make_shared<std::vector<std::atomic<bool>>>(tables_.size());
  }
}

Status TableRepository::CheckTable(int32_t t) const {
  // Tables added after the runtime was set were built, not paged in.
  if (content_valid_ == nullptr ||
      static_cast<size_t>(t) >= content_valid_->size() ||
      (*content_valid_)[t].load()) {
    return Status::OK();
  }
  const Table& table = tables_[t];
  for (int c = 0; c < table.num_columns(); ++c) {
    Status st = table.column_data(c).ValidateContent();
    if (!st.ok()) {
      return Status::IOError("table '" + table.name() + "' column " +
                             std::to_string(c) + ": " + st.message());
    }
  }
  (*content_valid_)[t].store(true);
  return Status::OK();
}

std::vector<Value> TableRepository::column_values(const ColumnRef& ref) const {
  const Table& t = tables_[ref.table_id];
  std::vector<Value> out;
  out.reserve(static_cast<size_t>(t.num_rows()));
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    out.push_back(t.at(r, ref.column_index));
  }
  return out;
}

Result<int32_t> TableRepository::FindTable(const std::string& name) const {
  auto it = name_to_id_.find(name);
  if (it == name_to_id_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return it->second;
}

std::string TableRepository::ColumnDisplayName(const ColumnRef& ref) const {
  const Table& t = tables_[ref.table_id];
  const Attribute& a = t.schema().attribute(ref.column_index);
  std::string col =
      a.has_name() ? a.name : "#" + std::to_string(ref.column_index);
  return t.name() + "." + col;
}

std::vector<ColumnRef> TableRepository::AllColumns() const {
  std::vector<ColumnRef> out;
  for (int32_t t = 0; t < num_tables(); ++t) {
    for (int c = 0; c < tables_[t].num_columns(); ++c) {
      out.push_back(ColumnRef{t, c});
    }
  }
  return out;
}

int64_t TableRepository::TotalRows() const {
  int64_t total = 0;
  for (const Table& t : tables_) total += t.num_rows();
  return total;
}

int64_t TableRepository::TotalColumns() const {
  int64_t total = 0;
  for (const Table& t : tables_) total += t.num_columns();
  return total;
}

Status TableRepository::LoadDirectory(const std::string& dir_path) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir_path, ec)) {
    return Status::IOError("'" + dir_path + "' is not a directory");
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir_path, ec)) {
    if (entry.path().extension() == ".csv") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());  // deterministic table ids
  for (const std::string& path : paths) {
    VER_ASSIGN_OR_RETURN(Table t, ReadCsvFile(path));
    VER_ASSIGN_OR_RETURN(int32_t id, AddTable(std::move(t)));
    (void)id;
  }
  return Status::OK();
}

Status TableRepository::SaveDirectory(const std::string& dir_path) const {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir_path, ec);
  if (ec) {
    return Status::IOError("cannot create directory '" + dir_path + "'");
  }
  for (const Table& t : tables_) {
    std::string path = (fs::path(dir_path) / (t.name() + ".csv")).string();
    VER_RETURN_IF_ERROR(WriteCsvFile(t, path));
  }
  return Status::OK();
}

}  // namespace ver
