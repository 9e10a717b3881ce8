// Fig. 13 (§7.5): scaling with dimensionality. Uniform synthetic data,
// d in {4, 8, 12, 16}; queries filter the first k dims (k uniform in
// [1, d]) at fixed total selectivity. Reports (a) absolute query time and
// (b) the ratio to a full scan (the curse-of-dimensionality view).
//
// Paper shape to check: Flood stays fastest at high d and degrades more
// slowly than the other multi-dim indexes; the clustered index's relative
// standing improves with d.

#include "bench/bench_main.h"

namespace flood {
namespace bench {
namespace {

std::vector<BenchRow> Run() {
  std::vector<BenchRow> rows;
  const std::vector<std::string> index_set = {
      "FullScan", "Clustered", "ZOrder", "UBtree",
      "Hyperoctree", "KdTree"};

  std::vector<std::string> header{"dims"};
  for (const auto& n : index_set) header.push_back(n);
  header.push_back("Flood");
  std::vector<std::vector<std::string>> out_ms;
  std::vector<std::vector<std::string>> out_ratio;

  const size_t n = ScaledRows(250'000);
  for (size_t d : {size_t{4}, size_t{8}, size_t{12}, size_t{16}}) {
    const BenchDataset ds = MakeUniformDataset(n, d, 132);
    const size_t nq = NumQueries(60);
    const auto [train, test] =
        Workload(MakeDimensionSweepWorkload(ds, nq * 2, 133).queries())
            .Split(0.5, 134);
    const BuildContext ctx{&train};

    double full_scan_ms = 1;
    std::vector<std::string> row_ms{std::to_string(d)};
    std::vector<std::string> row_ratio{std::to_string(d)};
    for (const auto& name : index_set) {
      auto index = BuildBaseline(name, ds.table, ctx, 1024);
      if (!index.ok()) {
        row_ms.push_back("N/A");
        row_ratio.push_back("N/A");
        continue;
      }
      const RunResult r = RunWorkload(**index, test);
      if (name == "FullScan") full_scan_ms = r.avg_ms;
      row_ms.push_back(FormatMs(r.avg_ms));
      row_ratio.push_back(Format(full_scan_ms / r.avg_ms, 1) + "x");
      rows.push_back({"Fig13/d" + std::to_string(d) + "/" + name,
                      r.avg_ms, {}});
    }
    auto flood = BuildFlood(ds.table, train);
    FLOOD_CHECK(flood.ok());
    const RunResult r = RunWorkload(*flood->index, test);
    row_ms.push_back(FormatMs(r.avg_ms));
    row_ratio.push_back(Format(full_scan_ms / r.avg_ms, 1) + "x");
    rows.push_back({"Fig13/d" + std::to_string(d) + "/Flood",
                    r.avg_ms,
                    {{"grid_dims_used",
                      [&] {
                        double used = 0;
                        const GridLayout& l = flood->index->layout();
                        for (uint32_t c : l.columns) used += c > 1 ? 1 : 0;
                        return used;
                      }()}}});
    std::printf("d=%zu: Flood layout %s\n", d,
                flood->index->layout().ToString().c_str());
    out_ms.push_back(row_ms);
    out_ratio.push_back(row_ratio);
  }

  PrintTable("Fig 13a: avg query time (ms) vs dimensions", header, out_ms);
  PrintTable("Fig 13b: speedup over full scan vs dimensions", header,
             out_ratio);
  return rows;
}

}  // namespace
}  // namespace bench
}  // namespace flood

FLOOD_BENCH_MAIN(flood::bench::Run)
