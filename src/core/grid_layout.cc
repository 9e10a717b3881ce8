#include "core/grid_layout.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace flood {

bool GridLayout::IsValid(size_t nd) const {
  if (dim_order.size() != nd || nd == 0) return false;
  if (use_sort_dim && nd < 1) return false;
  if (columns.size() != NumGridDims()) return false;
  for (uint32_t c : columns) {
    if (c == 0) return false;
  }
  std::vector<size_t> sorted = dim_order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < nd; ++i) {
    if (sorted[i] != i) return false;
  }
  return true;
}

GridLayout GridLayout::Default(size_t num_dims, uint64_t target_cells) {
  GridLayout layout;
  layout.dim_order.resize(num_dims);
  std::iota(layout.dim_order.begin(), layout.dim_order.end(), size_t{0});
  layout.use_sort_dim = num_dims > 1;
  const size_t grid_dims = layout.NumGridDims();
  layout.columns.assign(grid_dims, 1);
  if (grid_dims > 0 && target_cells > 1) {
    const double per_dim = std::pow(static_cast<double>(target_cells),
                                    1.0 / static_cast<double>(grid_dims));
    const uint32_t c = std::max<uint32_t>(
        1, static_cast<uint32_t>(std::llround(per_dim)));
    layout.columns.assign(grid_dims, c);
  }
  return layout;
}

namespace {

// Parses a comma-separated list of non-negative integers; fails on a
// value above UINT64_MAX.
bool ParseIntList(const std::string& text, std::vector<uint64_t>* out) {
  out->clear();
  if (text.empty()) return true;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(pos, comma - pos);
    if (token.empty()) return false;
    uint64_t value = 0;
    for (char c : token) {
      if (c < '0' || c > '9') return false;
      const auto digit = static_cast<uint64_t>(c - '0');
      if (value > (UINT64_MAX - digit) / 10) return false;
      value = value * 10 + digit;
    }
    out->push_back(value);
    pos = comma + 1;
    if (comma == text.size()) break;
  }
  return true;
}

}  // namespace

std::string GridLayout::Serialize() const {
  std::ostringstream os;
  os << "order=";
  for (size_t i = 0; i < dim_order.size(); ++i) {
    if (i > 0) os << ",";
    os << dim_order[i];
  }
  os << ";cols=";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) os << ",";
    os << columns[i];
  }
  os << ";sort=" << (use_sort_dim ? 1 : 0);
  return os.str();
}

StatusOr<GridLayout> GridLayout::Parse(const std::string& text) {
  GridLayout layout;
  size_t pos = 0;
  bool saw_order = false;
  bool saw_cols = false;
  bool saw_sort = false;
  while (pos < text.size()) {
    size_t semi = text.find(';', pos);
    if (semi == std::string::npos) semi = text.size();
    const std::string field = text.substr(pos, semi - pos);
    const size_t eq = field.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("layout field missing '=': " + field);
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    std::vector<uint64_t> ints;
    if (!ParseIntList(value, &ints)) {
      return Status::InvalidArgument("bad integer list in: " + field);
    }
    if (key == "order") {
      for (uint64_t v : ints) layout.dim_order.push_back(v);
      saw_order = true;
    } else if (key == "cols") {
      for (uint64_t v : ints) {
        if (v > UINT32_MAX) {
          return Status::InvalidArgument("column count over 2^32-1: " + field);
        }
        layout.columns.push_back(static_cast<uint32_t>(v));
      }
      saw_cols = true;
    } else if (key == "sort") {
      if (ints.size() != 1 || ints[0] > 1) {
        return Status::InvalidArgument("sort must be 0 or 1");
      }
      layout.use_sort_dim = ints[0] == 1;
      saw_sort = true;
    } else {
      return Status::InvalidArgument("unknown layout field: " + key);
    }
    pos = semi + 1;
  }
  if (!saw_order || !saw_cols || !saw_sort) {
    return Status::InvalidArgument("layout requires order, cols and sort");
  }
  if (!layout.IsValid(layout.dim_order.size())) {
    return Status::InvalidArgument("parsed layout is structurally invalid");
  }
  return layout;
}

std::string GridLayout::ToString() const {
  std::ostringstream os;
  os << "grid[";
  for (size_t i = 0; i < NumGridDims(); ++i) {
    if (i > 0) os << ", ";
    os << "d" << dim_order[i] << ":" << columns[i];
  }
  os << "]";
  if (use_sort_dim) os << " sort=d" << sort_dim();
  return os.str();
}

}  // namespace flood
