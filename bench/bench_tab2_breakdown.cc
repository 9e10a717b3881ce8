// Tab. 2 (§7.4 "Performance Breakdown"): scan overhead (SO), time per
// scanned point (TPS, ns), scan time (ST, ms), index time (IT, ms) and
// total time (TT, ms) for every index on every dataset.
//
// Paper shape to check: indexes spend the vast majority of time scanning;
// Flood has the lowest SO on most datasets and the lowest ST everywhere;
// Z-order-based indexes pay a high TPS (Z-value computation); tree indexes
// pay the highest IT (traversal).

#include "bench/bench_main.h"

namespace flood {
namespace bench {
namespace {

std::vector<BenchRow> Run() {
  std::vector<BenchRow> rows;

  for (const std::string& ds_name : AllDatasetNames()) {
    const BenchDataset& ds = GetDataset(ds_name);
    const size_t nq = NumQueries(100);
    const auto [train, test] =
        MakeWorkload(ds, WorkloadKind::kOlapSkewed, nq * 2, 52).Split(0.5, 53);
    const BuildContext ctx{&train};

    std::vector<std::vector<std::string>> out;
    auto emit = [&](const std::string& name, const RunResult& r) {
      const double nqd = static_cast<double>(r.queries);
      const double so = r.stats.ScanOverhead();
      const double tps = r.stats.TimePerScannedPoint();
      const double st = r.avg_scan_ms;
      const double it = r.avg_index_ms;
      out.push_back({name, Format(so, 2), Format(tps, 2), FormatMs(st),
                     Format(it, 4), FormatMs(r.avg_ms)});
      rows.push_back({"Tab2/" + ds_name + "/" + name,
                      r.avg_ms,
                      {{"SO", so},
                       {"TPS_ns", tps},
                       {"ST_ms", st},
                       {"IT_ms", it},
                       {"queries", nqd}}});
    };

    for (const std::string& index_name : AllBaselineNames()) {
      auto index = BuildBaseline(index_name, ds.table, ctx, 1024);
      if (!index.ok()) {
        out.push_back({index_name, "N/A", "N/A", "N/A", "N/A", "N/A"});
        continue;
      }
      emit(index_name, RunWorkload(**index, test));
    }
    auto flood = BuildFlood(ds.table, train);
    FLOOD_CHECK(flood.ok());
    emit("Flood", RunWorkload(*flood->index, test));

    PrintTable(
        "Table 2 (" + ds_name + "): SO | TPS (ns) | ST (ms) | IT (ms) | TT",
        {"index", "SO", "TPS", "ST", "IT", "TT"}, out);
  }
  return rows;
}

}  // namespace
}  // namespace bench
}  // namespace flood

FLOOD_BENCH_MAIN(flood::bench::Run)
