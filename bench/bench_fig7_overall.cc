// Fig. 7 + Tab. 1 (§7.4): overall query time of Flood vs every baseline on
// all four datasets, each index tuned for the workload. Also prints the
// dataset characteristics table.
//
// Paper shape to check: Flood fastest or on-par everywhere; the runner-up
// *changes* per dataset (clustered on sales, Z-order/hyperoctree on tpch,
// hyperoctree on osm, z-order on perfmon); full scan slowest.

#include "bench/bench_main.h"

namespace flood {
namespace bench {
namespace {

std::vector<BenchRow> Run() {
  std::vector<BenchRow> rows;
  std::vector<std::vector<std::string>> table1;
  std::map<std::string, std::map<std::string, double>> fig7;

  for (const std::string& ds_name : AllDatasetNames()) {
    const BenchDataset& ds = GetDataset(ds_name);
    const size_t nq = NumQueries(120);
    const auto [train, test] =
        MakeWorkload(ds, WorkloadKind::kOlapSkewed, nq * 2, 42)
            .Split(0.5, 43);
    table1.push_back({ds_name, std::to_string(ds.table.num_rows()),
                      std::to_string(test.size()),
                      std::to_string(ds.table.num_dims()),
                      FormatBytes(ds.table.MemoryUsageBytes())});

    const BuildContext ctx{&train};

    for (const std::string& index_name : AllBaselineNames()) {
      size_t page = 1024;
      if (index_name != "FullScan" && index_name != "Clustered" &&
          index_name != "UBtree") {
        page = TunePageSize(index_name, ds.table, ctx, train,
                            {256, 1024, 4096});
      }
      auto index = BuildBaseline(index_name, ds.table, ctx, page);
      if (!index.ok()) {
        std::printf("%s/%s: N/A (%s)\n", ds_name.c_str(),
                    index_name.c_str(), index.status().ToString().c_str());
        fig7[ds_name][index_name] = -1;
        continue;
      }
      const RunResult r = RunWorkload(**index, test);
      fig7[ds_name][index_name] = r.avg_ms;
      rows.push_back({"Fig7/" + ds_name + "/" + index_name,
                      r.avg_ms,
                      {{"scan_overhead", r.stats.ScanOverhead()},
                       {"index_MB", static_cast<double>(
                                        (*index)->IndexSizeBytes()) / 1e6}}});
    }

    auto flood = BuildFlood(ds.table, train);
    FLOOD_CHECK(flood.ok());
    const RunResult r = RunWorkload(*flood->index, test);
    fig7[ds_name]["Flood"] = r.avg_ms;
    rows.push_back({"Fig7/" + ds_name + "/Flood",
                    r.avg_ms,
                    {{"scan_overhead", r.stats.ScanOverhead()},
                     {"index_MB", static_cast<double>(
                                      flood->index->IndexSizeBytes()) / 1e6},
                     {"learn_s", flood->learn.learning_seconds}}});
    std::printf("%s: Flood layout = %s\n", ds_name.c_str(),
                flood->index->layout().ToString().c_str());
  }

  PrintTable("Table 1: dataset and query characteristics",
             {"dataset", "records", "queries", "dims", "size"}, table1);

  std::vector<std::string> header{"index"};
  for (const auto& ds : AllDatasetNames()) header.push_back(ds);
  std::vector<std::vector<std::string>> out;
  std::vector<std::string> names = AllBaselineNames();
  names.push_back("Flood");
  for (const auto& index_name : names) {
    std::vector<std::string> row{index_name};
    for (const auto& ds : AllDatasetNames()) {
      const double ms = fig7[ds][index_name];
      row.push_back(ms < 0 ? "N/A" : FormatMs(ms));
    }
    out.push_back(row);
  }
  PrintTable("Fig 7: average query time (ms) per index per dataset", header,
             out);

  // Speedup-vs-Flood summary (the paper's headline ratios).
  std::vector<std::vector<std::string>> speedups;
  for (const auto& index_name : names) {
    std::vector<std::string> row{index_name};
    for (const auto& ds : AllDatasetNames()) {
      const double ms = fig7[ds][index_name];
      const double flood_ms = fig7[ds]["Flood"];
      row.push_back(ms < 0 ? "N/A" : Format(ms / flood_ms, 1) + "x");
    }
    speedups.push_back(row);
  }
  PrintTable("Fig 7 (derived): slowdown relative to Flood", header,
             speedups);
  return rows;
}

}  // namespace
}  // namespace bench
}  // namespace flood

FLOOD_BENCH_MAIN(flood::bench::Run)
