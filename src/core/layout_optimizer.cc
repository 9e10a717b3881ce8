#include "core/layout_optimizer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/math_util.h"
#include "common/timer.h"

namespace flood {

namespace {

/// Layout-independent projection of one query: per-dimension flattened
/// endpoints and marginal selectivities (Algorithm 1 line "flatten the data
/// sample and workload sample using RMIs").
struct FlatQuery {
  std::vector<uint8_t> filtered;  // Per table dim.
  std::vector<double> ulo;
  std::vector<double> uhi;
  std::vector<double> sel;
  double dims_filtered = 0;
  bool empty = false;
};

/// Sample-backed evaluator of Eq. 1 for candidate layouts. All statistics
/// are estimated from the samples or computed from the layout parameters —
/// no index is built and no query is executed (§4.2).
class CostEstimator {
 public:
  CostEstimator(const Table& table, const Workload& workload,
                const CostModel* cost_model,
                const LayoutOptimizer::Options& options)
      : cost_model_(cost_model), num_rows_(table.num_rows()) {
    Rng rng(options.seed);
    sample_ = DataSample::FromTable(table, options.data_sample_size,
                                    rng.Next());
    queries_ = workload.Sample(options.query_sample_size, rng.Next());
    std::vector<Value> dim_min(table.num_dims());
    std::vector<Value> dim_max(table.num_dims());
    for (size_t dim = 0; dim < table.num_dims(); ++dim) {
      dim_min[dim] = table.min_value(dim);
      dim_max[dim] = table.max_value(dim);
    }
    flattener_ = Flattener::TrainFromSample(sample_, dim_min, dim_max,
                                            Flattener::Mode::kCdf,
                                            options.flatten_rmi_leaves);
    const size_t d = table.num_dims();
    flat_queries_.reserve(queries_.size());
    for (const Query& q : queries_) {
      FlatQuery fq;
      fq.filtered.assign(d, 0);
      fq.ulo.assign(d, 0.0);
      fq.uhi.assign(d, 1.0);
      fq.sel.assign(d, 1.0);
      for (size_t dim = 0; dim < d && dim < q.num_dims(); ++dim) {
        if (!q.IsFiltered(dim)) continue;
        const ValueRange& r = q.range(dim);
        if (r.IsEmpty()) fq.empty = true;
        fq.filtered[dim] = 1;
        fq.ulo[dim] = flattener_.ToUnit(dim, r.lo);
        fq.uhi[dim] = flattener_.ToUnit(dim, r.hi);
        fq.sel[dim] = sample_.Selectivity(dim, r);
        fq.dims_filtered += 1;
      }
      flat_queries_.push_back(std::move(fq));
    }
  }

  const DataSample& sample() const { return sample_; }
  size_t num_queries() const { return flat_queries_.size(); }
  size_t sample_rows() const { return sample_.num_rows(); }

  /// Average selectivity of `dim` across the query sample.
  double AvgSelectivity(size_t dim) const {
    if (flat_queries_.empty()) return 1.0;
    double total = 0;
    for (const auto& fq : flat_queries_) total += fq.sel[dim];
    return total / static_cast<double>(flat_queries_.size());
  }

  /// Average Eq.-1 cost over the query sample for a candidate layout whose
  /// grid dims are `order[0..k)` with (possibly fractional) column counts
  /// `cols`, and sort dimension `sort_dim` (ignored if !use_sort_dim).
  /// `relaxed` uses a continuous column-span surrogate for smooth
  /// gradients; the integer mode mirrors the index's floor arithmetic.
  double AvgCost(const std::vector<size_t>& order,
                 const std::vector<double>& cols, bool use_sort_dim,
                 size_t sort_dim, bool relaxed) const {
    const size_t k = order.size();
    double total_cells = 1;
    for (double c : cols) total_cells *= std::max(1.0, c);
    double total = 0;
    for (const auto& fq : flat_queries_) {
      if (fq.empty) continue;
      double nc = 1;
      double frac = 1;
      double interior = 1;
      double inner_span = 1;
      bool inner_filtered = false;
      for (size_t i = 0; i < k; ++i) {
        const size_t dim = order[i];
        const double c = std::max(1.0, cols[i]);
        double span;
        if (fq.filtered[dim]) {
          if (relaxed) {
            span = std::min(c, (fq.uhi[dim] - fq.ulo[dim]) * c + 1.0);
          } else {
            const double ci = std::floor(c);
            double lo_col = std::floor(fq.ulo[dim] * ci);
            double hi_col = std::floor(fq.uhi[dim] * ci);
            lo_col = std::min(lo_col, ci - 1);
            hi_col = std::min(hi_col, ci - 1);
            span = hi_col - lo_col + 1;
          }
          interior *= std::max(0.0, span - 2) / c;
        } else {
          span = c;
          // Unfiltered dims impose no checks; they don't break exactness.
        }
        nc *= span;
        frac *= std::min(1.0, span / c);
        if (i + 1 == k) {
          inner_span = span;
          inner_filtered = fq.filtered[dim] != 0;
        }
      }
      const bool sort_filtered = use_sort_dim && fq.filtered[sort_dim];
      const double sort_sel = sort_filtered ? fq.sel[sort_dim] : 1.0;
      const double ns =
          static_cast<double>(num_rows_) * frac * sort_sel;
      const double exact_pts =
          static_cast<double>(num_rows_) * interior * sort_sel;
      double ranges;
      if (sort_filtered) {
        ranges = nc;  // Per-cell refinement: one range per cell.
      } else {
        const double segments =
            inner_filtered ? std::min(inner_span, 3.0) : 1.0;
        ranges = std::max(1.0, nc / std::max(1.0, inner_span)) * segments;
      }

      CostModel::Features f;
      f.nc = std::max(1.0, nc);
      f.ns = std::max(0.0, ns);
      f.total_cells = total_cells;
      f.avg_cell_size = static_cast<double>(num_rows_) /
                        std::max(1.0, total_cells);
      f.dims_filtered = fq.dims_filtered;
      f.sort_filtered = sort_filtered ? 1.0 : 0.0;
      f.avg_visited_per_cell = f.ns / f.nc;
      f.exact_fraction =
          std::min(1.0, exact_pts / std::max(1.0, f.ns));
      f.avg_run_length = f.ns / std::max(1.0, ranges);
      total += cost_model_->PredictQueryTimeNs(f);
    }
    return total / std::max<size_t>(1, flat_queries_.size());
  }

 private:
  const CostModel* cost_model_;
  size_t num_rows_;
  DataSample sample_;
  Workload queries_;
  Flattener flattener_;
  std::vector<FlatQuery> flat_queries_;
};

/// Gradient-descent search over log-column-counts with projection onto the
/// cell budget, plus greedy coordinate probes to escape plateaus.
std::pair<std::vector<double>, double> GradientDescentSearch(
    const CostEstimator& est, const std::vector<size_t>& order,
    bool use_sort_dim, size_t sort_dim, std::vector<double> init_cols,
    uint64_t max_cells, int max_iterations) {
  const size_t k = order.size();
  if (k == 0) {
    return {{}, est.AvgCost(order, {}, use_sort_dim, sort_dim, false)};
  }
  const double log_budget = std::log(static_cast<double>(max_cells));

  std::vector<double> x(k);
  for (size_t i = 0; i < k; ++i) {
    x[i] = std::log(std::max(1.0, init_cols[i]));
  }
  auto project = [&](std::vector<double>& v) {
    double sum = 0;
    for (auto& xi : v) {
      xi = std::max(0.0, xi);
      sum += xi;
    }
    if (sum > log_budget) {
      const double scale = log_budget / sum;
      for (auto& xi : v) xi *= scale;
    }
  };
  project(x);

  auto eval = [&](const std::vector<double>& v, bool relaxed) {
    std::vector<double> cols(k);
    for (size_t i = 0; i < k; ++i) cols[i] = std::exp(v[i]);
    return est.AvgCost(order, cols, use_sort_dim, sort_dim, relaxed);
  };

  double best_cost = eval(x, true);
  std::vector<double> best_x = x;
  double lr = 0.4;
  const double h = 0.12;

  for (int iter = 0; iter < max_iterations; ++iter) {
    // Numeric gradient in log space.
    std::vector<double> grad(k, 0.0);
    double gmax = 0;
    for (size_t i = 0; i < k; ++i) {
      std::vector<double> xp = x;
      std::vector<double> xm = x;
      xp[i] += h;
      xm[i] = std::max(0.0, xm[i] - h);
      const double fp = eval(xp, true);
      const double fm = eval(xm, true);
      grad[i] = (fp - fm) / (xp[i] - xm[i] + 1e-12);
      gmax = std::max(gmax, std::fabs(grad[i]));
    }
    if (gmax < 1e-9) break;

    std::vector<double> next = x;
    for (size_t i = 0; i < k; ++i) next[i] -= lr * grad[i] / gmax;
    project(next);
    const double next_cost = eval(next, true);
    if (next_cost < best_cost) {
      best_cost = next_cost;
      best_x = next;
      x = std::move(next);
      lr = std::min(1.0, lr * 1.15);
    } else {
      lr *= 0.5;
      if (lr < 1e-3) break;
    }

    // Cheap coordinate probes (x2 / x0.5 per dim) every few iterations.
    if (iter % 5 == 4) {
      for (size_t i = 0; i < k; ++i) {
        for (double delta : {std::log(2.0), -std::log(2.0)}) {
          std::vector<double> probe = x;
          probe[i] = std::max(0.0, probe[i] + delta);
          project(probe);
          const double c = eval(probe, true);
          if (c < best_cost) {
            best_cost = c;
            best_x = probe;
            x = std::move(probe);
          }
        }
      }
    }
  }

  // Integer rounding with a +/-1 neighborhood probe per dimension.
  std::vector<double> cols(k);
  for (size_t i = 0; i < k; ++i) {
    cols[i] = std::max(1.0, std::floor(std::exp(best_x[i]) + 0.5));
  }
  double final_cost =
      est.AvgCost(order, cols, use_sort_dim, sort_dim, false);
  for (size_t i = 0; i < k; ++i) {
    for (double delta : {-1.0, 1.0}) {
      std::vector<double> probe = cols;
      probe[i] = std::max(1.0, probe[i] + delta);
      double cells = 1;
      for (double c : probe) cells *= c;
      if (cells > static_cast<double>(max_cells)) continue;
      const double c = est.AvgCost(order, probe, use_sort_dim, sort_dim,
                                   false);
      if (c < final_cost) {
        final_cost = c;
        cols = std::move(probe);
      }
    }
  }
  return {cols, final_cost};
}

}  // namespace

LayoutOptimizer::Result LayoutOptimizer::Optimize(
    const Table& table, const Workload& workload) const {
  const Stopwatch learn;
  const size_t d = table.num_dims();
  FLOOD_CHECK(d >= 1);
  CostEstimator est(table, workload, cost_model_, options_);

  // Dimensions by increasing average selectivity (most selective first).
  std::vector<size_t> dims(d);
  std::iota(dims.begin(), dims.end(), size_t{0});
  std::vector<double> avg_sel(d);
  for (size_t dim = 0; dim < d; ++dim) avg_sel[dim] = est.AvgSelectivity(dim);
  std::stable_sort(dims.begin(), dims.end(), [&avg_sel](size_t a, size_t b) {
    return avg_sel[a] < avg_sel[b];
  });

  Result result;
  double best_cost = std::numeric_limits<double>::infinity();

  const uint64_t init_cells = Clamp<uint64_t>(
      static_cast<uint64_t>(table.num_rows() / 1024), 64, options_.max_cells);

  // Iterate candidate sort dimensions (every dimension; Algorithm 1).
  for (size_t cand = 0; cand < d; ++cand) {
    const size_t sort_dim = dims[cand];
    std::vector<size_t> order;
    order.reserve(d - 1);
    for (size_t i = 0; i < d; ++i) {
      if (dims[i] != sort_dim) order.push_back(dims[i]);
    }

    // Initial column counts: selectivity-weighted split of the target cell
    // count; never-filtered dimensions start at one column (excluded).
    const size_t k = order.size();
    std::vector<double> init(k, 1.0);
    if (k > 0) {
      std::vector<double> w(k, 0.0);
      double total_w = 0;
      for (size_t i = 0; i < k; ++i) {
        const double sel = Clamp(avg_sel[order[i]], 1e-6, 1.0);
        w[i] = sel < 0.999 ? -std::log(sel) : 0.0;
        total_w += w[i];
      }
      const double log_target =
          std::log(static_cast<double>(init_cells));
      for (size_t i = 0; i < k; ++i) {
        if (total_w <= 0) {
          init[i] = std::exp(log_target / static_cast<double>(k));
        } else if (w[i] > 0) {
          init[i] = std::exp(log_target * w[i] / total_w);
        }
      }
    }

    auto [cols, cost] = GradientDescentSearch(
        est, order, /*use_sort_dim=*/true, sort_dim, init,
        options_.max_cells, options_.max_iterations);

    if (cost < best_cost) {
      best_cost = cost;
      GridLayout layout;
      layout.dim_order = order;
      layout.dim_order.push_back(sort_dim);
      layout.use_sort_dim = true;
      layout.columns.assign(cols.size(), 1);
      for (size_t i = 0; i < cols.size(); ++i) {
        layout.columns[i] = static_cast<uint32_t>(cols[i]);
      }
      result.layout = std::move(layout);
    }
  }

  result.predicted_cost_ns = best_cost;
  result.learning_seconds = learn.ElapsedSeconds();
  result.rows_sampled = est.sample_rows();
  result.queries_used = est.num_queries();
  return result;
}

double LayoutOptimizer::EstimateLayoutCost(const Table& table,
                                           const Workload& workload,
                                           const GridLayout& layout) const {
  CostEstimator est(table, workload, cost_model_, options_);
  const size_t k = layout.NumGridDims();
  std::vector<size_t> order(layout.dim_order.begin(),
                            layout.dim_order.begin() +
                                static_cast<std::ptrdiff_t>(k));
  std::vector<double> cols(layout.columns.begin(), layout.columns.end());
  return est.AvgCost(order, cols, layout.use_sort_dim,
                     layout.use_sort_dim ? layout.sort_dim() : 0,
                     /*relaxed=*/false);
}

StatusOr<OptimizedFlood> BuildOptimizedFlood(
    const Table& table, const Workload& train_workload,
    const CostModel& cost_model,
    const LayoutOptimizer::Options& optimizer_options,
    FloodIndex::Options index_options) {
  LayoutOptimizer optimizer(&cost_model, optimizer_options);
  OptimizedFlood out;
  out.learn = optimizer.Optimize(table, train_workload);

  index_options.layout = out.learn.layout;
  index_options.max_cells =
      std::max<uint64_t>(index_options.max_cells, optimizer_options.max_cells);
  out.index = std::make_unique<FloodIndex>(index_options);

  const Stopwatch load;
  FLOOD_RETURN_IF_ERROR(
      out.index->Build(table, BuildContext{&train_workload}));
  out.load_seconds = load.ElapsedSeconds();
  return out;
}

}  // namespace flood
