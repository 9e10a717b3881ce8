#include "core/cost_model.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/flood_index.h"
#include "query/executor.h"

namespace flood {

std::vector<double> CostModel::Features::ToVector() const {
  return {nc,
          ns,
          total_cells,
          avg_cell_size,
          dims_filtered,
          sort_filtered,
          avg_visited_per_cell,
          exact_fraction,
          avg_run_length};
}

CostModel::Features CostModel::Features::FromStats(const QueryStats& stats,
                                                   const Query& query,
                                                   const GridLayout& layout,
                                                   size_t table_rows) {
  Features f;
  f.nc = static_cast<double>(stats.cells_visited);
  f.ns = static_cast<double>(stats.points_scanned);
  f.total_cells = static_cast<double>(layout.NumCells());
  f.avg_cell_size =
      static_cast<double>(table_rows) / std::max(1.0, f.total_cells);
  f.dims_filtered = static_cast<double>(query.NumFiltered());
  f.sort_filtered = (layout.use_sort_dim &&
                     layout.sort_dim() < query.num_dims() &&
                     query.IsFiltered(layout.sort_dim()))
                        ? 1.0
                        : 0.0;
  f.avg_visited_per_cell = f.ns / std::max(1.0, f.nc);
  f.exact_fraction =
      static_cast<double>(stats.points_exact) / std::max(1.0, f.ns);
  f.avg_run_length =
      f.ns / std::max(1.0, static_cast<double>(stats.ranges_scanned));
  return f;
}

CostModel CostModel::Default() { return CostModel(); }

StatusOr<std::vector<CostModel::Example>> CostModel::GenerateExamples(
    const Table& table, const Workload& workload,
    const CalibrationOptions& options) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("empty calibration table");
  }
  if (workload.empty()) {
    return Status::InvalidArgument("empty calibration workload");
  }
  const size_t d = table.num_dims();
  Rng rng(options.seed);
  const Workload queries = workload.Sample(options.max_queries, rng.Next());

  const BuildContext ctx{&queries};
  // One draw is skipped here: the layouts drawn below, and the weights
  // fitted to them, were calibrated on this stream.
  rng.Next();

  std::vector<Example> examples;
  for (size_t l = 0; l < options.num_layouts; ++l) {
    // Random layout: shuffled dimension order, log-uniform target cell
    // count split randomly across grid dimensions (§4.1.1).
    GridLayout layout;
    layout.dim_order.resize(d);
    for (size_t i = 0; i < d; ++i) layout.dim_order[i] = i;
    for (size_t i = d; i > 1; --i) {
      const size_t j = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(layout.dim_order[i - 1], layout.dim_order[j]);
    }
    layout.use_sort_dim = d > 1;
    const size_t k = layout.NumGridDims();
    layout.columns.assign(k, 1);
    const double max_cells = static_cast<double>(
        std::min<uint64_t>(options.max_cells,
                           std::max<uint64_t>(64, table.num_rows() / 4)));
    const double log_target = rng.Uniform(std::log(64.0),
                                          std::log(max_cells));
    if (k > 0) {
      std::vector<double> w(k);
      double total = 0;
      for (auto& x : w) {
        x = rng.Uniform(0.1, 1.0);
        total += x;
      }
      for (size_t i = 0; i < k; ++i) {
        layout.columns[i] = std::max<uint32_t>(
            1, static_cast<uint32_t>(
                   std::llround(std::exp(log_target * w[i] / total))));
      }
    }

    FloodIndex::Options fopt;
    fopt.layout = layout;
    fopt.max_cells = options.max_cells * 2;
    FloodIndex index(fopt);
    FLOOD_RETURN_IF_ERROR(index.Build(table, ctx));

    for (const Query& q : queries) {
      QueryStats stats;
      (void)ExecuteAggregate(index, q, &stats);
      if (stats.cells_visited == 0 || stats.points_scanned == 0) continue;
      Example ex;
      ex.features =
          Features::FromStats(stats, q, index.layout(), table.num_rows());
      ex.wp = static_cast<double>(stats.index_ns) /
              static_cast<double>(stats.cells_visited);
      ex.wr = static_cast<double>(stats.refine_ns) /
              static_cast<double>(stats.cells_visited);
      ex.ws = static_cast<double>(stats.scan_ns) /
              static_cast<double>(stats.points_scanned);
      ex.total_ns = static_cast<double>(stats.total_ns);
      examples.push_back(std::move(ex));
    }
  }
  if (examples.empty()) {
    return Status::Internal("calibration produced no examples");
  }
  return examples;
}

StatusOr<CostModel> CostModel::Calibrate(const Table& table,
                                         const Workload& workload,
                                         const CalibrationOptions& options) {
  StatusOr<std::vector<Example>> examples =
      GenerateExamples(table, workload, options);
  if (!examples.ok()) return examples.status();
  return Train(*examples, options.predictor, options.forest, options.seed);
}

CostModel CostModel::Train(const std::vector<Example>& examples,
                           Predictor predictor,
                           const RandomForest::Params& forest_params,
                           uint64_t seed) {
  CostModel model;
  model.predictor_ = predictor;

  std::vector<std::vector<double>> x;
  std::vector<double> wp;
  std::vector<double> ws;
  std::vector<std::vector<double>> x_refine;
  std::vector<double> wr;
  x.reserve(examples.size());
  for (const Example& ex : examples) {
    x.push_back(ex.features.ToVector());
    wp.push_back(ex.wp);
    ws.push_back(ex.ws);
    // w_r is only meaningful for sort-filtered queries (otherwise
    // refinement is skipped and w_r == 0 by definition).
    if (ex.features.sort_filtered > 0.5) {
      x_refine.push_back(ex.features.ToVector());
      wr.push_back(ex.wr);
    }
  }

  switch (predictor) {
    case Predictor::kConstant: {
      auto mean = [](const std::vector<double>& v) {
        if (v.empty()) return 0.0;
        double s = 0;
        for (double e : v) s += e;
        return s / static_cast<double>(v.size());
      };
      model.const_wp_ = std::max(1.0, mean(wp));
      model.const_wr_ = std::max(1.0, mean(wr));
      model.const_ws_ = std::max(0.1, mean(ws));
      break;
    }
    case Predictor::kLinear:
      model.lin_wp_ = LinearRegression::Fit(x, wp);
      model.lin_ws_ = LinearRegression::Fit(x, ws);
      if (!x_refine.empty()) {
        model.lin_wr_ = LinearRegression::Fit(x_refine, wr);
      }
      break;
    case Predictor::kForest:
      model.rf_wp_ = RandomForest::Fit(x, wp, forest_params, seed + 1);
      model.rf_ws_ = RandomForest::Fit(x, ws, forest_params, seed + 2);
      if (!x_refine.empty()) {
        model.rf_wr_ =
            RandomForest::Fit(x_refine, wr, forest_params, seed + 3);
      }
      break;
  }
  return model;
}

double CostModel::PredictWp(const Features& f) const {
  double w;
  switch (predictor_) {
    case Predictor::kConstant:
      w = const_wp_;
      break;
    case Predictor::kLinear:
      w = lin_wp_.Predict(f.ToVector());
      break;
    default:
      w = rf_wp_.Predict(f.ToVector());
  }
  return std::max(0.5, w);
}

double CostModel::PredictWr(const Features& f) const {
  if (f.sort_filtered < 0.5) return 0.0;
  double w;
  switch (predictor_) {
    case Predictor::kConstant:
      w = const_wr_;
      break;
    case Predictor::kLinear:
      w = lin_wr_.Predict(f.ToVector());
      break;
    default:
      w = rf_wr_.Predict(f.ToVector());
  }
  return std::max(0.5, w);
}

double CostModel::PredictWs(const Features& f) const {
  double w;
  switch (predictor_) {
    case Predictor::kConstant:
      w = const_ws_;
      break;
    case Predictor::kLinear:
      w = lin_ws_.Predict(f.ToVector());
      break;
    default:
      w = rf_ws_.Predict(f.ToVector());
  }
  return std::max(0.05, w);
}

double CostModel::PredictQueryTimeNs(const Features& f) const {
  return (PredictWp(f) + PredictWr(f)) * f.nc + PredictWs(f) * f.ns;
}

}  // namespace flood
