#ifndef FLOOD_CORE_GRID_LAYOUT_H_
#define FLOOD_CORE_GRID_LAYOUT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace flood {

/// A Flood layout L = (O, {c_i}) (§4.1): an ordering O of the d dimensions
/// — the last entry being the sort dimension — plus the number of columns
/// for each grid dimension.
///
/// For the §7.4 "Simple Grid" ablation, `use_sort_dim` may be false, in
/// which case every dimension in `dim_order` is a grid dimension and cells
/// are unordered histograms.
struct GridLayout {
  /// Table-dimension ids; the first NumGridDims() entries form the grid (in
  /// traversal-priority order), the last is the sort dimension when
  /// use_sort_dim.
  std::vector<size_t> dim_order;
  /// Columns per grid dimension, parallel to the grid prefix of dim_order.
  /// c_i == 1 effectively excludes the dimension from the grid.
  std::vector<uint32_t> columns;
  bool use_sort_dim = true;

  size_t num_dims() const { return dim_order.size(); }
  size_t NumGridDims() const {
    return dim_order.size() - (use_sort_dim ? 1 : 0);
  }
  size_t sort_dim() const {
    FLOOD_DCHECK(use_sort_dim && !dim_order.empty());
    return dim_order.back();
  }
  size_t grid_dim(size_t i) const { return dim_order[i]; }

  /// Total number of grid cells (product of column counts), saturating at
  /// UINT64_MAX when the product overflows.
  uint64_t NumCells() const {
    uint64_t cells = 1;
    for (uint32_t c : columns) {
      if (c != 0 && cells > UINT64_MAX / c) return UINT64_MAX;
      cells *= c;
    }
    return cells;
  }

  /// Structural validity: a permutation prefix with matching column counts.
  bool IsValid(size_t num_dims) const;

  /// A uniform default: every dimension in natural order, the last as sort
  /// dimension, and column counts splitting `target_cells` evenly across
  /// grid dimensions.
  static GridLayout Default(size_t num_dims, uint64_t target_cells);

  std::string ToString() const;

  /// Compact machine-readable form, e.g. "order=2,0,1;cols=4,8;sort=1".
  /// Lets applications persist a learned layout and rebuild without
  /// re-running the optimizer.
  std::string Serialize() const;

  /// Parses Serialize() output. Validates structure (IsValid) and rejects
  /// integers that overflow 64 bits and column counts above UINT32_MAX.
  /// The cell count is not bounded here: FloodIndex::Build checks it.
  static StatusOr<GridLayout> Parse(const std::string& text);
};

}  // namespace flood

#endif  // FLOOD_CORE_GRID_LAYOUT_H_
