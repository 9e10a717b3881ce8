// Fig. 14 (§7.6 "Finding the Optimum"): fix the learned layout's shape and
// scale its column counts proportionally, sweeping the total cell count.
// Scan time falls (less overscan) while index time rises (more cells);
// total time is U-shaped and the learned optimum should sit near the
// bottom. Also reports scan overhead and time-per-scan (Fig. 14b).
//
// Paper shape to check: U-shaped total time; the optimizer's chosen cell
// count lands near the measured minimum.

#include <cmath>

#include "bench/bench_main.h"

namespace flood {
namespace bench {
namespace {

std::vector<BenchRow> Run() {
  std::vector<BenchRow> rows;
  const BenchDataset& ds = GetDataset("tpch");
  const size_t nq = NumQueries(80);
  const auto [train, test] =
      MakeWorkload(ds, WorkloadKind::kOlapSkewed, nq * 2, 142).Split(0.5, 143);
  const BuildContext ctx{&train};

  auto learned = BuildFlood(ds.table, train);
  FLOOD_CHECK(learned.ok());
  const GridLayout base = learned->index->layout();
  const double learned_cells = static_cast<double>(base.NumCells());

  std::vector<std::vector<std::string>> out;
  double best_ms = -1;
  double best_cells = 0;
  for (double scale :
       {1.0 / 64, 1.0 / 16, 1.0 / 4, 1.0, 4.0, 16.0, 64.0}) {
    // Scale columns proportionally in every gridded dimension.
    GridLayout layout = base;
    const size_t k = layout.NumGridDims();
    size_t gridded = 0;
    for (uint32_t c : layout.columns) gridded += c > 1 ? 1 : 0;
    if (gridded == 0) gridded = k;
    const double per_dim =
        std::pow(scale, 1.0 / static_cast<double>(std::max<size_t>(1, gridded)));
    for (auto& c : layout.columns) {
      if (c > 1 || scale > 1.0) {
        c = static_cast<uint32_t>(
            std::max(1.0, std::round(static_cast<double>(c) * per_dim)));
      }
    }
    FloodIndex::Options o;
    o.layout = layout;
    o.max_cells = uint64_t{1} << 24;
    FloodIndex index(o);
    const Status s = index.Build(ds.table, ctx);
    if (!s.ok()) continue;
    const RunResult r = RunWorkload(index, test);
    if (best_ms < 0 || r.avg_ms < best_ms) {
      best_ms = r.avg_ms;
      best_cells = static_cast<double>(index.num_cells());
    }
    out.push_back({std::to_string(index.num_cells()), FormatMs(r.avg_ms),
                   FormatMs(r.avg_scan_ms), FormatMs(r.avg_index_ms),
                   Format(r.stats.ScanOverhead(), 1),
                   Format(r.stats.TimePerScannedPoint(), 2),
                   scale == 1.0 ? "<== learned" : ""});
    rows.push_back({"Fig14/cells" + std::to_string(index.num_cells()),
                    r.avg_ms,
                    {{"scan_ms", r.avg_scan_ms},
                     {"index_ms", r.avg_index_ms},
                     {"scan_overhead", r.stats.ScanOverhead()}}});
  }

  PrintTable("Fig 14: cost surface along the cell-count axis (TPC-H)",
             {"cells", "total ms", "scan ms", "index ms", "scan overhead",
              "ns/scan", "note"},
             out);
  std::printf(
      "\nFig 14 summary: learned layout has %.0f cells; measured optimum "
      "%.0f cells (%.2f ms). Learned-vs-optimum time ratio should be ~1.\n",
      learned_cells, best_cells, best_ms);
  return rows;
}

}  // namespace
}  // namespace bench
}  // namespace flood

FLOOD_BENCH_MAIN(flood::bench::Run)
