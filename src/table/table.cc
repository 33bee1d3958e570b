#include "table/table.h"

#include <algorithm>
#include <numeric>

#include "util/hash.h"
#include "util/row_deduper.h"

namespace ver {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.resize(schema_.num_attributes());
}

Table::Table(std::string name, Schema schema, std::vector<ColumnData> columns,
             int64_t num_rows)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      columns_(std::move(columns)),
      num_rows_(num_rows) {
  VER_DCHECK(static_cast<int>(columns_.size()) == schema_.num_attributes())
      << columns_.size() << " columns for " << schema_.num_attributes()
      << " attributes";
  for (const ColumnData& c : columns_) {
    VER_DCHECK(c.size() == num_rows_)
        << "column of " << c.size() << " rows in a table of " << num_rows_;
  }
}

void Table::Reserve(int64_t rows) {
  for (ColumnData& c : columns_) c.Reserve(rows);
}

Status Table::AppendRow(std::vector<Value> row) {
  if (static_cast<int>(row.size()) > num_columns()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " cells but table '" +
        name_ + "' has " + std::to_string(num_columns()) + " columns");
  }
  for (int c = 0; c < num_columns(); ++c) {
    if (c < static_cast<int>(row.size())) {
      columns_[c].Append(row[c]);
    } else {
      columns_[c].Append(CellView::Null());
    }
  }
  ++num_rows_;
  return Status::OK();
}

Status Table::AppendCells(const std::vector<CellView>& row) {
  if (static_cast<int>(row.size()) > num_columns()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " cells but table '" +
        name_ + "' has " + std::to_string(num_columns()) + " columns");
  }
  for (int c = 0; c < num_columns(); ++c) {
    columns_[c].Append(c < static_cast<int>(row.size()) ? row[c]
                                                        : CellView::Null());
  }
  ++num_rows_;
  return Status::OK();
}

std::vector<Value> Table::Row(int64_t row) const {
  std::vector<Value> out;
  out.reserve(num_columns());
  for (int c = 0; c < num_columns(); ++c) out.push_back(columns_[c].value(row));
  return out;
}

uint64_t Table::RowHash(int64_t row) const {
  uint64_t h = 0x726f7768617368ULL;  // arbitrary row-hash seed
  for (int c = 0; c < num_columns(); ++c) {
    h = HashCombine(h, columns_[c].CellHash(row));
  }
  return h;
}

std::vector<uint64_t> Table::AllRowHashes() const {
  // Column-major: seed every accumulator, then stream each column's cell
  // hashes through the blocked combine kernel. Same per-row HashCombine
  // chain as RowHash() — columns visit in the same order — so the stream
  // is bit-identical to the row-major loop it replaces.
  std::vector<uint64_t> out(static_cast<size_t>(num_rows_),
                            0x726f7768617368ULL);
  for (const ColumnData& c : columns_) {
    c.CombineCellHashesInto(out.data(), num_rows_);
  }
  return out;
}

int64_t Table::DistinctCount(int col) const {
  return columns_[col].DistinctCount(/*count_null=*/true);
}

Table Table::Project(const std::vector<int>& col_indices, bool distinct,
                     std::string new_name) const {
  Schema schema;
  for (int c : col_indices) schema.AddAttribute(schema_.attribute(c));
  std::vector<int64_t> rows;
  if (distinct) {
    // Distinct dedups on the row hash and confirms collisions by comparing
    // the source cells of the previously kept rows. Projected-row hashes
    // are precomputed column-major through the blocked kernel (same
    // HashCombine chain as RowHash over the projected columns).
    std::vector<uint64_t> hashes(static_cast<size_t>(num_rows_),
                                 0x726f7768617368ULL);
    for (int c : col_indices) {
      columns_[c].CombineCellHashesInto(hashes.data(), num_rows_);
    }
    auto same_row = [&](int64_t a, int64_t b) {
      for (int c : col_indices) {
        if (cell(a, c).Compare(cell(b, c)) != 0) return false;
      }
      return true;
    };
    RowDeduper deduper;
    deduper.Reset(num_rows_);
    for (int64_t r = 0; r < num_rows_; ++r) {
      if (deduper.Insert(hashes[r], r, same_row)) rows.push_back(r);
    }
  } else {
    rows.resize(static_cast<size_t>(num_rows_));
    std::iota(rows.begin(), rows.end(), 0);
  }
  const int64_t n = static_cast<int64_t>(rows.size());
  std::vector<ColumnData> columns;
  columns.reserve(col_indices.size());
  ColumnData::GatherScratch scratch;
  for (int c : col_indices) {
    columns.push_back(
        ColumnData::Gather(columns_[c], rows.data(), n, &scratch));
  }
  return Table(std::move(new_name), std::move(schema), std::move(columns), n);
}

void Table::InferColumnTypes() {
  for (int c = 0; c < num_columns(); ++c) {
    const ColumnData& data = columns_[c];
    int64_t ints = data.int_count();
    int64_t doubles = data.double_count();
    int64_t strings = data.string_count();
    ValueType t = ValueType::kString;
    if (strings == 0 && doubles == 0 && ints > 0) {
      t = ValueType::kInt;
    } else if (strings == 0 && (doubles > 0 || ints > 0)) {
      t = ValueType::kDouble;
    } else if (strings == 0 && ints == 0 && doubles == 0) {
      t = ValueType::kNull;
    }
    schema_.attribute(c).type = t;
  }
}

void Table::Seal() {
  for (ColumnData& c : columns_) c.Seal();
}

size_t Table::ApproxBytes() const {
  size_t bytes = 0;
  for (const ColumnData& c : columns_) bytes += c.ApproxBytes();
  return bytes;
}

void Table::SaveTo(SerdeWriter* w) const {
  w->WriteString(name_);
  schema_.SaveTo(w);
  w->WriteI64(num_rows_);
  for (const ColumnData& c : columns_) c.SaveTo(w);
}

Status Table::LoadFrom(SerdeReader* r, const PagerBinding* binding) {
  VER_RETURN_IF_ERROR(r->ReadString(&name_));
  VER_RETURN_IF_ERROR(schema_.LoadFrom(r));
  VER_RETURN_IF_ERROR(r->ReadI64(&num_rows_));
  if (num_rows_ < 0) {
    return Status::IOError("corrupt table '" + name_ +
                           "': negative row count");
  }
  columns_.assign(static_cast<size_t>(schema_.num_attributes()),
                  ColumnData());
  for (ColumnData& c : columns_) {
    VER_RETURN_IF_ERROR(c.LoadFrom(r, binding));
    if (c.size() != num_rows_) {
      return Status::IOError(
          "corrupt table '" + name_ + "': column holds " +
          std::to_string(c.size()) + " rows, table declares " +
          std::to_string(num_rows_));
    }
  }
  return Status::OK();
}

std::string Table::ToString(int64_t max_rows) const {
  std::string out = name_ + " (" + std::to_string(num_rows_) + " rows)\n";
  out += schema_.ToString() + "\n";
  int64_t limit = std::min<int64_t>(max_rows, num_rows_);
  for (int64_t r = 0; r < limit; ++r) {
    for (int c = 0; c < num_columns(); ++c) {
      if (c > 0) out += " | ";
      out += columns_[c].cell(r).ToText();
    }
    out += "\n";
  }
  if (limit < num_rows_) out += "...\n";
  return out;
}

}  // namespace ver
