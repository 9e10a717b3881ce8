// Fig. 11 (§7.4): incremental ablation of Flood's components on all four
// datasets:
//   Simple Grid   d-dim histogram grid, equal-width columns ~ selectivity
//   +Sort Dim     (d-1)-dim grid + sorted last dimension
//   +Flattening   CDF-based column boundaries
//   +Learning     cost-model-optimized layout (full Flood)
//
// Paper shape to check: sort-dim helps modestly; flattening is the big win
// on skewed datasets (osm, perfmon: 20-30x) and ~neutral on uniform ones
// (sales, tpch); learning provides major gains everywhere.

#include <cmath>

#include "bench/bench_main.h"

namespace flood {
namespace bench {
namespace {

/// Heuristic column counts ~ proportional to (inverse) selectivity, the
/// paper's "Simple Grid" baseline configuration.
std::vector<uint32_t> HeuristicColumns(const BenchDataset& ds,
                                       const Workload& train,
                                       const DataSample& sample,
                                       const std::vector<size_t>& dims,
                                       uint64_t target_cells) {
  std::vector<double> weight(dims.size());
  double total = 0;
  for (size_t i = 0; i < dims.size(); ++i) {
    const double sel = std::max(1e-6, train.AvgSelectivity(dims[i], sample));
    weight[i] = sel < 0.999 ? -std::log(sel) : 0.0;
    total += weight[i];
  }
  std::vector<uint32_t> cols(dims.size(), 1);
  const double log_target = std::log(static_cast<double>(target_cells));
  for (size_t i = 0; i < dims.size(); ++i) {
    if (total <= 0) {
      cols[i] = static_cast<uint32_t>(std::max(
          1.0, std::exp(log_target / static_cast<double>(dims.size()))));
    } else if (weight[i] > 0) {
      cols[i] = static_cast<uint32_t>(
          std::max(1.0, std::exp(log_target * weight[i] / total)));
    }
  }
  return cols;
}

std::vector<BenchRow> Run() {
  std::vector<BenchRow> rows;
  std::vector<std::string> header{"variant"};
  for (const auto& ds : AllDatasetNames()) header.push_back(ds);
  std::map<std::string, std::vector<std::string>> cells;

  for (const std::string& ds_name : AllDatasetNames()) {
    const BenchDataset& ds = GetDataset(ds_name);
    const size_t d = ds.table.num_dims();
    const size_t nq = NumQueries(100);
    const auto [train, test] =
        MakeWorkload(ds, WorkloadKind::kOlapSkewed, nq * 2, 92).Split(0.5, 93);
    const BuildContext ctx{&train};
    const DataSample sample = DataSample::FromTable(ds.table, 10'000, 7);
    const uint64_t target_cells =
        std::max<uint64_t>(64, ds.table.num_rows() / 64);

    auto run_variant = [&](const std::string& label,
                           const FloodIndex::Options& options) {
      FloodIndex index(options);
      const Status s = index.Build(ds.table, ctx);
      FLOOD_CHECK(s.ok());
      const RunResult r = RunWorkload(index, test);
      cells[label].push_back(FormatMs(r.avg_ms));
      rows.push_back({"Fig11/" + ds_name + "/" + label, r.avg_ms, {}});
    };

    std::vector<size_t> all_dims(d);
    for (size_t i = 0; i < d; ++i) all_dims[i] = i;

    // Simple Grid: all d dims gridded, no sort dim, equal-width columns.
    {
      FloodIndex::Options o;
      o.layout.dim_order = all_dims;
      o.layout.use_sort_dim = false;
      o.layout.columns =
          HeuristicColumns(ds, train, sample, all_dims, target_cells);
      o.flatten_mode = Flattener::Mode::kLinear;
      o.max_cells = uint64_t{1} << 24;
      run_variant("SimpleGrid", o);
    }
    // +Sort Dim: last (least selective) dim becomes the sort dimension.
    std::vector<size_t> by_sel = ctx.DimsBySelectivity(ds.table);
    std::vector<size_t> grid_dims(by_sel.begin(), by_sel.end() - 1);
    const size_t sort_dim = by_sel.back();
    FloodIndex::Options sorted;
    sorted.layout.dim_order = grid_dims;
    sorted.layout.dim_order.push_back(sort_dim);
    sorted.layout.use_sort_dim = true;
    sorted.layout.columns =
        HeuristicColumns(ds, train, sample, grid_dims, target_cells);
    sorted.flatten_mode = Flattener::Mode::kLinear;
    sorted.max_cells = uint64_t{1} << 24;
    run_variant("+SortDim", sorted);

    // +Flattening: same layout, CDF columns.
    FloodIndex::Options flattened = sorted;
    flattened.flatten_mode = Flattener::Mode::kCdf;
    run_variant("+Flattening", flattened);

    // +Learning: full Flood.
    {
      auto flood = BuildFlood(ds.table, train);
      FLOOD_CHECK(flood.ok());
      const RunResult r = RunWorkload(*flood->index, test);
      cells["+Learning"].push_back(FormatMs(r.avg_ms));
      rows.push_back({"Fig11/" + ds_name + "/+Learning", r.avg_ms, {}});
    }
  }

  std::vector<std::vector<std::string>> out;
  for (const std::string& label :
       {"SimpleGrid", "+SortDim", "+Flattening", "+Learning"}) {
    std::vector<std::string> row{label};
    for (const auto& c : cells[label]) row.push_back(c);
    out.push_back(row);
  }
  PrintTable("Fig 11: component ablation, avg query time (ms)", header, out);
  return rows;
}

}  // namespace
}  // namespace bench
}  // namespace flood

FLOOD_BENCH_MAIN(flood::bench::Run)
