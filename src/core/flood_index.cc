#include "core/flood_index.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <numeric>

#include "api/index_registry.h"
#include "common/inline_vec.h"
#include "common/radix_sort.h"
#include "common/timer.h"
#include "core/layout_optimizer.h"
#include "query/scan_util.h"

namespace flood {
namespace {

/// The column boundaries of grid dimension `dim` over the values [lo, hi]:
/// entry c - 1 is the smallest v in [lo, hi] with ColumnOf(v) >= c, for
/// each column c in 1..ColumnOf(hi). ColumnOf is monotone in the value
/// under both flattener modes, so for v in [lo, hi] the column is the
/// count of boundaries at or below v (CountAtOrBelow). Each boundary is
/// one bisection over [previous boundary, hi].
std::vector<Value> ColumnBoundaries(const Flattener& flattener, size_t dim,
                                    uint32_t cols, Value lo, Value hi) {
  const uint32_t top = flattener.ColumnOf(dim, hi, cols);
  std::vector<Value> bounds;
  bounds.reserve(top);
  Value from = lo;
  for (uint32_t c = 1; c <= top; ++c) {
    // Offsets from `from`, in uint64: [lo, hi] may span all of int64.
    uint64_t a = 0;
    uint64_t b = static_cast<uint64_t>(hi) - static_cast<uint64_t>(from);
    const auto at = [from](uint64_t off) {
      return static_cast<Value>(static_cast<uint64_t>(from) + off);
    };
    while (a < b) {  // ColumnOf(at(b)) >= c; ColumnOf(at(x)) < c for x < a.
      const uint64_t mid = a + (b - a) / 2;
      if (flattener.ColumnOf(dim, at(mid), cols) >= c) {
        b = mid;
      } else {
        a = mid + 1;
      }
    }
    from = at(a);
    bounds.push_back(from);
  }
  return bounds;
}

/// The number of `bounds` (ascending) at or below `v`: upper_bound as a
/// branch-free bisection.
uint64_t CountAtOrBelow(const std::vector<Value>& bounds, Value v) {
  if (bounds.empty()) return 0;
  const Value* base = bounds.data();
  size_t len = bounds.size();
  while (len > 1) {
    const size_t half = len / 2;
    base = base[half] <= v ? base + half : base;
    len -= half;
  }
  return static_cast<uint64_t>(base - bounds.data()) + (*base <= v);
}

}  // namespace

Status FloodIndex::Build(const Table& table, const BuildContext& ctx) {
  const size_t n = table.num_rows();
  const size_t d = table.num_dims();
  if (n == 0) return Status::InvalidArgument("empty table");
  // The cell table's row offsets and ScanTask bounds are 32-bit; reject
  // tables whose row ids would silently wrap instead of truncating.
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "FloodIndex supports at most 2^32 - 1 rows (32-bit cell table)");
  }

  layout_ = options_.layout;
  if (layout_.dim_order.empty()) {
    if (options_.learn_layout && ctx.workload != nullptr &&
        !ctx.workload->empty()) {
      const CostModel cost_model = CostModel::Default();
      LayoutOptimizer::Options opt;
      opt.max_cells = options_.max_cells;
      const LayoutOptimizer optimizer(&cost_model, opt);
      layout_ = optimizer.Optimize(table, *ctx.workload).layout;
    } else {
      const uint64_t target =
          options_.default_target_cells > 0
              ? options_.default_target_cells
              : std::max<uint64_t>(1, n / 1024);
      layout_ = GridLayout::Default(d, target);
    }
  }
  if (!layout_.IsValid(d)) {
    return Status::InvalidArgument("invalid layout: " + layout_.ToString());
  }
  // ExecuteT's per-query scratch (spans, odometer, check-dim sets) is
  // fixed 64-entry stack storage; reject wider layouts up front instead
  // of overflowing it in release builds.
  if (layout_.NumGridDims() > 64) {
    return Status::InvalidArgument(
        "FloodIndex supports at most 64 grid dimensions");
  }
  // NumCells saturates on overflow, so an overflowing layout fails both
  // checks instead of wrapping into a small budget.
  num_cells_ = layout_.NumCells();
  if (num_cells_ > options_.max_cells) {
    return Status::InvalidArgument("layout exceeds max_cells budget");
  }
  if (num_cells_ > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "FloodIndex supports at most 2^32 - 1 cells (32-bit cell ids)");
  }

  flattener_ =
      Flattener::Train(table, options_.flatten_mode,
                       options_.flatten_sample_size, options_.seed,
                       options_.flatten_rmi_leaves);

  // Cell-id strides: first grid dimension slowest (depth-first traversal
  // order of §3.1).
  const size_t k = layout_.NumGridDims();
  strides_.assign(k, 1);
  for (size_t i = k; i-- > 1;) {
    strides_[i - 1] = strides_[i] * layout_.columns[i];
  }

  // Assign each row to a cell: key r holds (cell << 32 | r). ColumnOf is
  // monotone in the value, so where it pays, a dimension's cols - 1
  // column boundaries are found once by bisection and a row's column is
  // the count of boundaries at or below its value.
  std::vector<uint64_t> keys(n);
  std::iota(keys.begin(), keys.end(), uint64_t{0});
  std::vector<Value> values(n);
  for (size_t i = 0; i < k; ++i) {
    const size_t dim = layout_.grid_dim(i);
    const uint32_t cols = layout_.columns[i];
    const uint64_t stride = strides_[i];
    if (cols == 1) continue;  // Dimension excluded from the grid.
    table.column(dim).DecodeInto(values.data());
    const Value lo = table.min_value(dim);
    const Value hi = table.max_value(dim);
    const uint64_t bisection_steps =
        std::bit_width(static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo));
    if ((cols - uint64_t{1}) * bisection_steps < n) {
      const std::vector<Value> bounds =
          ColumnBoundaries(flattener_, dim, cols, lo, hi);
      for (size_t r = 0; r < n; ++r) {
        keys[r] += (CountAtOrBelow(bounds, values[r]) * stride) << 32;
      }
    } else {
      for (size_t r = 0; r < n; ++r) {
        keys[r] += (flattener_.ColumnOf(dim, values[r], cols) * stride) << 32;
      }
    }
  }

  // Order rows by (cell, sort value, row). A stable radix sort over the
  // cell-id bits orders the keys by (cell, row) in O(n) per 11-bit digit;
  // then only each multi-row cell's (sort value, row) pairs are sorted.
  {
    std::vector<uint64_t> scratch;
    RadixSort(&keys, &scratch, 32,
              32 + static_cast<unsigned>(std::bit_width(num_cells_ - 1)), 11);
  }
  constexpr uint64_t kRowMask = 0xFFFFFFFFu;
  std::vector<RowId> perm(n);
  if (layout_.use_sort_dim) {
    table.column(layout_.sort_dim()).DecodeInto(values.data());
    std::vector<std::pair<Value, uint32_t>> by_value(n);
    for (size_t i = 0; i < n; ++i) {
      const auto row = static_cast<uint32_t>(keys[i] & kRowMask);
      by_value[i] = {values[row], row};
    }
    for (size_t begin = 0, end = 0; begin < n; begin = end) {
      const uint64_t cell = keys[begin] >> 32;
      end = begin + 1;
      while (end < n && keys[end] >> 32 == cell) ++end;
      if (end - begin > 1) {
        std::sort(by_value.begin() + static_cast<ptrdiff_t>(begin),
                  by_value.begin() + static_cast<ptrdiff_t>(end));
      }
    }
    // `values` becomes the sort column in storage order, for the models.
    for (size_t i = 0; i < n; ++i) {
      values[i] = by_value[i].first;
      perm[i] = by_value[i].second;
    }
  } else {
    for (size_t i = 0; i < n; ++i) perm[i] = keys[i] & kRowMask;
  }
  InitStorage(table, &perm, ctx);

  // Cell table (§3.2.1): physical offset of each occupied cell's first
  // point, built from the rows' cells in storage order.
  std::vector<uint32_t> sorted_cells(n);
  for (size_t i = 0; i < n; ++i) {
    sorted_cells[i] = static_cast<uint32_t>(keys[i] >> 32);
  }
  cells_ = CellTable(num_cells_, sorted_cells);

  // Per-cell refinement models over the sort dimension (§5.2).
  cell_models_ = CellModels();
  if (layout_.use_sort_dim && options_.use_cell_models) {
    cell_models_.Build(values, cells_.starts(), options_.plm_min_cell_size,
                       options_.plm_delta);
  }
  return Status::OK();
}

template <typename V>
void FloodIndex::ExecuteT(const Query& query, V& visitor,
                          QueryStats* stats) const {
  const Stopwatch total;
  const size_t k = layout_.NumGridDims();

  // ---- Projection (§3.2.1) ----------------------------------------------
  const Stopwatch projection;
  DimSpan spans[64];
  FLOOD_DCHECK(k <= 64);
  uint64_t nc = 1;
  for (size_t i = 0; i < k; ++i) {
    const size_t dim = layout_.grid_dim(i);
    DimSpan& s = spans[i];
    s.filtered = dim < query.num_dims() && query.IsFiltered(dim);
    const uint32_t cols = layout_.columns[i];
    if (s.filtered) {
      const ValueRange& r = query.range(dim);
      if (r.IsEmpty()) {
        if (stats != nullptr) {
          stats->index_ns += projection.ElapsedNanos();
          stats->total_ns += total.ElapsedNanos();
        }
        return;
      }
      s.lo = flattener_.ColumnOf(dim, r.lo, cols);
      s.hi = flattener_.ColumnOf(dim, r.hi, cols);
    } else {
      s.lo = 0;
      s.hi = cols - 1;
    }
    nc *= s.hi - s.lo + 1;
  }
  const bool sort_filtered =
      layout_.use_sort_dim && layout_.sort_dim() < query.num_dims() &&
      query.IsFiltered(layout_.sort_dim());
  const ValueRange sort_range =
      sort_filtered ? query.range(layout_.sort_dim()) : ValueRange{};
  if (sort_filtered && sort_range.IsEmpty()) {
    if (stats != nullptr) stats->total_ns += total.ElapsedNanos();
    return;
  }
  if (stats != nullptr) stats->cells_visited += nc;

  // Per-query scratch, stack-backed (threading contract: no mutable
  // members on the index; InlineVec spills to the heap only for unusually
  // fragmented queries). Check-dim sets — one entry per distinct boundary
  // combination seen — are interned as (offset, len) into a flat pool.
  struct SetRef {
    uint32_t off;
    uint32_t len;
  };
  InlineVec<size_t, 64> set_pool;
  InlineVec<SetRef, 16> set_index;
  auto intern_check_set = [&set_pool, &set_index](const size_t* dims,
                                                  size_t len) {
    for (size_t s = 0; s < set_index.size(); ++s) {
      const SetRef ref = set_index[s];
      if (ref.len == len &&
          std::equal(dims, dims + len, set_pool.data() + ref.off)) {
        return static_cast<uint16_t>(s);
      }
    }
    const auto off = static_cast<uint32_t>(set_pool.size());
    for (size_t i = 0; i < len; ++i) set_pool.push_back(dims[i]);
    set_index.push_back({off, static_cast<uint32_t>(len)});
    return static_cast<uint16_t>(set_index.size() - 1);
  };
  auto check_set = [&set_pool, &set_index](uint16_t id) {
    const SetRef ref = set_index[id];
    return std::span<const size_t>(set_pool.data() + ref.off, ref.len);
  };

  InlineVec<ScanTask, 128> tasks;
  InlineVec<CellRun, 64> runs;
  const std::vector<uint32_t>& starts = cells_.starts();

  // Odometer over the outer grid dimensions [0, inner). The inner
  // dimension is the last filtered one: the unfiltered grid dimensions
  // after it are covered whole, so under each prefix its columns span one
  // contiguous range of cell ids, `inner_stride` ids per column. It is
  // emitted as up to three segments (boundary / merged interior /
  // boundary), which keeps physically-adjacent interior cells in single
  // runs when no refinement applies. With no filtered grid dimension, one
  // segment covers the whole grid.
  size_t inner = k;  // k: no grid dimension is filtered.
  for (size_t i = k; i-- > 0;) {
    if (spans[i].filtered) {
      inner = i;
      break;
    }
  }
  const bool any_grid_filtered = inner < k;
  const size_t outer_dims = any_grid_filtered ? inner : 0;
  const uint64_t inner_stride =
      any_grid_filtered ? strides_[inner] : num_cells_;
  const DimSpan inner_span = any_grid_filtered ? spans[inner] : DimSpan{};

  // Inner-dimension segments: [lo..lo], [lo+1..hi-1], [hi..hi].
  struct Segment {
    uint32_t a;
    uint32_t b;
    bool boundary;
  };
  Segment segments[3];
  size_t num_segments = 0;
  const uint32_t lo = inner_span.lo;
  const uint32_t hi = inner_span.hi;
  if (!inner_span.filtered) {
    segments[num_segments++] = {lo, hi, false};
  } else if (lo == hi) {
    segments[num_segments++] = {lo, lo, true};
  } else {
    segments[num_segments++] = {lo, lo, true};
    if (lo + 1 <= hi - 1) segments[num_segments++] = {lo + 1, hi - 1, false};
    segments[num_segments++] = {hi, hi, true};
  }

  uint32_t col[64];
  for (size_t i = 0; i < outer_dims; ++i) col[i] = spans[i].lo;

  size_t outer_check[64];
  while (true) {
    uint64_t base = 0;
    size_t num_outer = 0;
    for (size_t i = 0; i < outer_dims; ++i) {
      base += static_cast<uint64_t>(col[i]) * strides_[i];
      if (spans[i].filtered &&
          (col[i] == spans[i].lo || col[i] == spans[i].hi)) {
        outer_check[num_outer++] = layout_.grid_dim(i);
      }
    }

    for (size_t seg = 0; seg < num_segments; ++seg) {
      const Segment& sg = segments[seg];
      size_t seg_dims[64];
      size_t seg_n = num_outer;
      std::copy(outer_check, outer_check + num_outer, seg_dims);
      if (sg.boundary) seg_dims[seg_n++] = layout_.grid_dim(inner);
      std::sort(seg_dims, seg_dims + seg_n);
      const uint16_t set_id = intern_check_set(seg_dims, seg_n);

      // The segment's occupied cells, by ordinal; empty cells hold no
      // rows and are never visited.
      const size_t first_ord = cells_.Ordinal(base + sg.a * inner_stride);
      const size_t end_ord =
          cells_.Ordinal(base + (uint64_t{sg.b} + 1) * inner_stride);
      if (sort_filtered) {
        // Refined below, in one pass over every collected run.
        if (first_ord < end_ord) {
          runs.push_back({static_cast<uint32_t>(first_ord),
                          static_cast<uint32_t>(end_ord), set_id});
        }
      } else if (options_.enable_run_merging) {
        // Merged contiguous run across the segment's cells.
        if (first_ord < end_ord) {
          tasks.push_back({starts[first_ord], starts[end_ord], set_id});
        }
      } else {
        // Ablation: one scan task per cell, no coalescing.
        for (size_t o = first_ord; o < end_ord; ++o) {
          tasks.push_back({starts[o], starts[o + 1], set_id});
        }
      }
    }

    // Advance the odometer (outer dims only).
    size_t i = outer_dims;
    bool done = true;
    while (i-- > 0) {
      if (++col[i] <= spans[i].hi) {
        done = false;
        break;
      }
      col[i] = spans[i].lo;
    }
    if (done) break;
  }

  const int64_t projection_ns = projection.ElapsedNanos();

  // ---- Refinement (§3.2.2 / §5.2) -----------------------------------------
  // Each cell's rows are sorted by the sort dimension, so its matching rows
  // form one sub-range, found by the column's zone-map-plus-one-block bound
  // search. A cell's PLM prediction is a lower bound of the rank of the
  // first row >= lo (Plm invariant), so it only moves where the search for
  // that row starts; the search for the range's end starts from there.
  int64_t refine_ns = 0;
  uint64_t zone_pruned_blocks = 0;
  if (sort_filtered) {
    const Stopwatch refine;
    const Column& sort_col = data_.column(layout_.sort_dim());
    for (const CellRun& run : runs) {
      for (size_t o = run.first_ord; o < run.end_ord; ++o) {
        const size_t begin = starts[o];
        const size_t end = starts[o + 1];
        // Zone-map task pruning: the zone maps of a cell's first and last
        // covering blocks bound its sort values (the blocks may be shared
        // with neighboring cells, which only makes the bound
        // conservative). A disjoint cell skips refinement and scanning
        // entirely. Only blocks fully inside the cell count as skipped:
        // those are provably never decoded (shared boundary blocks may
        // still be scanned through a neighboring cell).
        const size_t b0 = begin / Column::kBlockSize;
        const size_t b1 = (end - 1) / Column::kBlockSize;
        if (sort_col.BlockMax(b1) < sort_range.lo ||
            sort_col.BlockMin(b0) > sort_range.hi) {
          const size_t full_begin =
              (begin + Column::kBlockSize - 1) / Column::kBlockSize;
          const size_t full_end = end / Column::kBlockSize;
          if (full_end > full_begin) {
            zone_pruned_blocks += full_end - full_begin;
          }
          continue;
        }
        const Plm* model = cell_models_.Find(o);
        const size_t from =
            model != nullptr ? begin + model->Predict(sort_range.lo) : begin;
        const size_t rb = sort_col.LowerBound(from, end, sort_range.lo);
        const size_t re = sort_col.UpperBound(rb, end, sort_range.hi);
        if (rb < re) {
          tasks.push_back({static_cast<uint32_t>(rb),
                           static_cast<uint32_t>(re), run.check_set});
        }
      }
    }
    refine_ns = refine.ElapsedNanos();
  }
  if (stats != nullptr) {
    stats->index_ns += projection_ns;
    stats->refine_ns += refine_ns;
    stats->blocks_skipped += zone_pruned_blocks;
  }

  // ---- Scan (§3.2 step 3) -------------------------------------------------
  const Stopwatch scan;
  const std::vector<size_t> all_filtered =
      options_.enable_exact_ranges ? std::vector<size_t>()
                                   : FilteredDims(query);
  for (const ScanTask& task : tasks) {
    const std::span<const size_t> dims =
        options_.enable_exact_ranges ? check_set(task.check_set)
                                     : std::span<const size_t>(all_filtered);
    ScanRange(data_, query, task.begin, task.end,
              /*exact=*/options_.enable_exact_ranges && dims.empty(), dims,
              visitor, stats);
  }
  if (stats != nullptr) {
    stats->scan_ns += scan.ElapsedNanos();
    stats->total_ns += total.ElapsedNanos();
  }
}

size_t FloodIndex::IndexSizeBytes() const {
  return cells_.MemoryUsageBytes() + cell_models_.MemoryUsageBytes() +
         flattener_.MemoryUsageBytes() + strides_.size() * sizeof(uint64_t);
}

FLOOD_DEFINE_EXECUTE_DISPATCH(FloodIndex);

std::vector<std::pair<std::string, double>> FloodIndex::DebugProperties()
    const {
  return {{"num_cells", static_cast<double>(num_cells_)},
          {"num_grid_dims", static_cast<double>(layout_.NumGridDims())},
          {"num_cell_models", static_cast<double>(cell_models_.num_models())}};
}

std::string FloodIndex::Describe() const {
  return "Flood[" + layout_.ToString() + "]";
}

namespace {
const IndexRegistrar kRegistrar(
    "flood", {},
    [](const IndexOptions& opts)
        -> StatusOr<std::unique_ptr<MultiDimIndex>> {
      FloodIndex::Options o;
      if (opts.Has("layout")) {
        StatusOr<GridLayout> layout = GridLayout::Parse(*opts.Get("layout"));
        if (!layout.ok()) return layout.status();
        o.layout = std::move(*layout);
      }
      o.default_target_cells = static_cast<uint64_t>(opts.GetInt(
          "target_cells", static_cast<int64_t>(o.default_target_cells)));
      o.learn_layout = opts.GetBool("learn_layout", o.learn_layout);
      const std::string mode = opts.GetString("flatten_mode", "cdf");
      if (mode == "linear") {
        o.flatten_mode = Flattener::Mode::kLinear;
      } else if (mode != "cdf") {
        return Status::InvalidArgument("unknown flatten_mode: " + mode);
      }
      o.use_cell_models = opts.GetBool("use_cell_models", o.use_cell_models);
      o.plm_delta = opts.GetDouble("plm_delta", o.plm_delta);
      o.plm_min_cell_size = static_cast<size_t>(opts.GetInt(
          "plm_min_cell_size", static_cast<int64_t>(o.plm_min_cell_size)));
      o.max_cells = static_cast<uint64_t>(
          opts.GetInt("max_cells", static_cast<int64_t>(o.max_cells)));
      o.seed = static_cast<uint64_t>(
          opts.GetInt("seed", static_cast<int64_t>(o.seed)));
      o.enable_run_merging =
          opts.GetBool("enable_run_merging", o.enable_run_merging);
      o.enable_exact_ranges =
          opts.GetBool("enable_exact_ranges", o.enable_exact_ranges);
      return std::unique_ptr<MultiDimIndex>(new FloodIndex(std::move(o)));
    });
}  // namespace

}  // namespace flood
