#include "storage/table.h"

#include <algorithm>

namespace flood {

StatusOr<Table> Table::FromColumns(std::vector<std::vector<Value>> columns,
                                   std::vector<std::string> names) {
  if (columns.empty()) {
    return Status::InvalidArgument("table requires at least one column");
  }
  const size_t n = columns[0].size();
  for (const auto& c : columns) {
    if (c.size() != n) {
      return Status::InvalidArgument("columns must have equal length");
    }
  }
  if (!names.empty() && names.size() != columns.size()) {
    return Status::InvalidArgument("names must match number of columns");
  }

  Table t;
  t.num_rows_ = n;
  for (const std::vector<Value>& values : columns) {
    t.AddColumn(Column::FromValues(values));
  }
  if (names.empty()) {
    for (size_t d = 0; d < t.columns_.size(); ++d) {
      t.names_.push_back("dim" + std::to_string(d));
    }
  } else {
    t.names_ = std::move(names);
  }
  return t;
}

void Table::AddColumn(Column column) {
  // Table min/max are the fold of the column's block zone maps.
  Value mn = kValueMax;
  Value mx = kValueMin;
  for (size_t b = 0; b < column.NumBlocks(); ++b) {
    mn = std::min(mn, column.BlockMin(b));
    mx = std::max(mx, column.BlockMax(b));
  }
  if (column.empty()) {
    mn = 0;
    mx = 0;
  }
  min_.push_back(mn);
  max_.push_back(mx);
  columns_.push_back(std::move(column));
}

Table Table::Gather(std::span<const RowId> rows) const {
  Table t;
  t.num_rows_ = rows.size();
  t.names_ = names_;
  std::vector<Value> src(num_rows_);
  std::vector<Value> dst(rows.size());
  for (const Column& column : columns_) {
    column.DecodeInto(src.data());
    for (size_t i = 0; i < rows.size(); ++i) {
      FLOOD_DCHECK(rows[i] < num_rows_);
      dst[i] = src[static_cast<size_t>(rows[i])];
    }
    t.AddColumn(Column::FromValues(dst));
  }
  return t;
}

Table Table::Reorder(const std::vector<RowId>& perm) const {
  FLOOD_CHECK(perm.size() == num_rows_);
  return Gather(perm);
}

void Table::AppendTo(ByteWriter* w) const {
  w->PutU32(static_cast<uint32_t>(num_dims()));
  w->PutU64(num_rows_);
  for (size_t d = 0; d < num_dims(); ++d) {
    w->PutString(names_[d]);
    columns_[d].AppendTo(w);
  }
}

StatusOr<Table> Table::ReadFrom(ByteReader* r) {
  const uint32_t num_dims = r->GetU32();
  const uint64_t num_rows = r->GetU64();
  // A column stores at least 9 bytes (encoding + size), a name 4.
  if (!r->ok() || num_dims == 0 || num_dims > r->remaining() / 13) {
    return Status::InvalidArgument("truncated or corrupt table pages");
  }
  Table t;
  t.num_rows_ = static_cast<size_t>(num_rows);
  for (uint32_t d = 0; d < num_dims; ++d) {
    t.names_.push_back(r->GetString());
    StatusOr<Column> col = Column::ReadFrom(r);
    if (!col.ok()) return col.status();
    if (col->size() != t.num_rows_) {
      return Status::InvalidArgument("column length mismatch in table pages");
    }
    t.AddColumn(std::move(*col));
  }
  return t;
}

size_t Table::MemoryUsageBytes() const {
  size_t bytes = 0;
  for (const auto& c : columns_) bytes += c.MemoryUsageBytes();
  return bytes;
}

}  // namespace flood
