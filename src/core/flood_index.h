#ifndef FLOOD_CORE_FLOOD_INDEX_H_
#define FLOOD_CORE_FLOOD_INDEX_H_

#include <vector>

#include "core/cell_models.h"
#include "core/cell_table.h"
#include "core/flattener.h"
#include "core/grid_layout.h"
#include "query/multidim_index.h"

namespace flood {

/// Flood: the learned multi-dimensional in-memory index (§3–§5).
///
/// The d-dimensional space is covered by a (d-1)-dimensional grid over the
/// layout's grid dimensions; within a cell, points are ordered by the sort
/// dimension. Skewed attributes are *flattened* through per-dimension CDF
/// models so each column holds ~equal mass; per-cell piecewise-linear
/// models accelerate refinement along the sort dimension.
///
/// Query flow (§3.2), three passes: Projection (intersecting cells →
/// runs of occupied cells or physical ranges), Refinement (each cell's
/// sort-dimension sub-range), Scan (columnar filter of boundary cells;
/// interior cells scan check-free as exact ranges, including O(1)
/// cumulative-aggregate answers). Refinement works through the sort
/// column's zone maps plus one packed block per bound (Column::LowerBound
/// / UpperBound); a cell's PLM only gives the position its search starts
/// from, which the lower-bound invariant makes safe.
///
/// The cell table (CellTable) maps a cell id to its physical row range and
/// is sized by the *occupied* cells: 2 bits per grid cell for an occupancy
/// rank bitmap plus 4 bytes per occupied cell, so a grid with far more
/// cells than rows (skewed or correlated data) costs little. The per-cell
/// models are keyed by occupied ordinal the same way.
///
/// The layout itself is learned offline by LayoutOptimizer; Build accepts
/// any valid layout, which is how the ablations of Fig. 11 are expressed.
class FloodIndex final : public StorageBackedIndex {
 public:
  struct Options {
    /// Layout to build. When empty, Build learns one from the
    /// BuildContext's training workload (see learn_layout), falling back
    /// to GridLayout::Default.
    GridLayout layout;
    /// Target cell count of the GridLayout::Default fallback; 0 = n/1024.
    uint64_t default_target_cells = 0;
    /// With an empty layout and a non-empty ctx.workload, learn the layout
    /// via LayoutOptimizer (CostModel::Default()) instead of the uniform
    /// default. This is how Database::Open trains Flood.
    bool learn_layout = true;
    /// kCdf = flattened (paper default); kLinear = fixed-width ablation.
    Flattener::Mode flatten_mode = Flattener::Mode::kCdf;
    size_t flatten_sample_size = 50'000;
    size_t flatten_rmi_leaves = 64;
    /// Per-cell PLM refinement models (§5.2) giving each bound search its
    /// start position; disable to start every search at the cell's first
    /// row.
    bool use_cell_models = true;
    double plm_delta = 50.0;       ///< Fig. 17b default.
    size_t plm_min_cell_size = 64; ///< Cells below this get no model.
    /// Upper bound on the grid's cell count (the product of the column
    /// counts), for learned and given layouts alike; Build rejects a
    /// larger layout. Each grid cell costs 2 bits of cell table whether or
    /// not it holds a point, so the default 2^22 bounds that part at 1 MiB.
    /// Cell ids are 32-bit: no budget admits more than 2^32 - 1 cells.
    uint64_t max_cells = uint64_t{1} << 22;
    uint64_t seed = 42;
    /// §7.1 optimization ablations (bench_ablation_optimizations):
    /// merge physically-adjacent interior cells into single runs...
    bool enable_run_merging = true;
    /// ...and skip per-value checks on ranges known to fully match
    /// (disabling also disables cumulative-aggregate answers).
    bool enable_exact_ranges = true;
  };

  FloodIndex() = default;
  explicit FloodIndex(Options options) : options_(std::move(options)) {}

  std::string_view name() const override { return "Flood"; }

  Status Build(const Table& table, const BuildContext& ctx) override;

  void Execute(const Query& query, Visitor& visitor,
               QueryStats* stats) const override;

  size_t IndexSizeBytes() const override;

  std::vector<std::pair<std::string, double>> DebugProperties()
      const override;
  std::string Describe() const override;
  std::string SerializedLayout() const override {
    return layout_.Serialize();
  }

  const GridLayout& layout() const { return layout_; }
  uint64_t num_cells() const { return num_cells_; }
  const Flattener& flattener() const { return flattener_; }
  size_t num_cell_models() const { return cell_models_.num_models(); }

  /// Grid cells holding at least one point.
  size_t num_occupied_cells() const { return cells_.num_occupied(); }

  /// Points in cell `c` (introspection / tests).
  size_t CellSize(size_t c) const {
    const auto [begin, end] = CellRange(c);
    return end - begin;
  }

  /// Physical [begin, end) row range of cell `c` (used by KnnEngine). An
  /// empty cell's range is empty and begins at the next occupied cell.
  std::pair<size_t, size_t> CellRange(size_t c) const {
    FLOOD_DCHECK(c < num_cells_);
    return cells_.Range(c);
  }

  template <typename V>
  void ExecuteT(const Query& query, V& visitor, QueryStats* stats) const;

 private:
  /// Per-grid-dimension projection of a query.
  struct DimSpan {
    uint32_t lo = 0;       ///< First intersecting column.
    uint32_t hi = 0;       ///< Last intersecting column.
    bool filtered = false;
  };

  /// One physical range to scan plus the dimensions needing per-row checks
  /// (identified by an id into a per-query set table).
  struct ScanTask {
    uint32_t begin;
    uint32_t end;
    uint16_t check_set;
  };

  /// A projected segment's occupied ordinals [first_ord, end_ord), all
  /// sharing one check set, awaiting refinement along the sort dimension.
  struct CellRun {
    uint32_t first_ord;
    uint32_t end_ord;
    uint16_t check_set;
  };

  Options options_;
  GridLayout layout_;
  Flattener flattener_;
  uint64_t num_cells_ = 0;
  std::vector<uint64_t> strides_;    ///< Cell-id stride per grid dim.
  CellTable cells_;
  CellModels cell_models_;
};

}  // namespace flood

#endif  // FLOOD_CORE_FLOOD_INDEX_H_
