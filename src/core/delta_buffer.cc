#include "core/delta_buffer.h"

namespace flood {

Status DeltaBuffer::Insert(const std::vector<Value>& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  for (size_t dim = 0; dim < columns_.size(); ++dim) {
    columns_[dim].push_back(row[dim]);
  }
  return Status::OK();
}

size_t DeltaBuffer::EraseMatching(const std::vector<Value>& key) {
  if (key.size() != columns_.size()) return 0;
  const size_t n = size();
  size_t out = 0;
  for (size_t i = 0; i < n; ++i) {
    bool equal = true;
    for (size_t dim = 0; dim < columns_.size(); ++dim) {
      if (columns_[dim][i] != key[dim]) {
        equal = false;
        break;
      }
    }
    if (equal) continue;  // Drop this row.
    if (out != i) {
      for (size_t dim = 0; dim < columns_.size(); ++dim) {
        columns_[dim][out] = columns_[dim][i];
      }
    }
    ++out;
  }
  for (auto& c : columns_) c.resize(out);
  return n - out;
}

bool DeltaBuffer::AddTombstone(RowId row) {
  if (!tombstone_set_.insert(row).second) return false;
  tombstones_.push_back(row);
  return true;
}

StatusOr<Table> DeltaBuffer::Materialize(const Table& main) const {
  if (main.num_dims() != columns_.size()) {
    return Status::InvalidArgument("table arity mismatch");
  }
  const size_t main_rows = main.num_rows();
  for (RowId t : tombstones_) {
    if (static_cast<size_t>(t) >= main_rows) {
      return Status::InvalidArgument("tombstone past end of base table");
    }
  }
  std::vector<std::vector<Value>> cols(columns_.size());
  std::vector<std::string> names;
  for (size_t dim = 0; dim < columns_.size(); ++dim) {
    std::vector<Value> base = main.DecodeColumn(dim);
    std::vector<Value>& col = cols[dim];
    if (tombstones_.empty()) {
      col = std::move(base);  // Insert-only compaction: no second copy.
    } else {
      col.reserve(main_rows - tombstones_.size() + columns_[dim].size());
      for (size_t r = 0; r < main_rows; ++r) {
        if (!IsTombstoned(static_cast<RowId>(r))) col.push_back(base[r]);
      }
    }
    col.insert(col.end(), columns_[dim].begin(), columns_[dim].end());
    names.push_back(main.name(dim));
  }
  return Table::FromColumns(std::move(cols), std::move(names));
}

}  // namespace flood
