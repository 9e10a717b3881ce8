// Fig. 12 (§7.5): scaling with (a) dataset size — TPC-H subsampled over a
// decade of sizes, same workload — and (b) query selectivity, 0.001%..10%.
//
// Paper shape to check: Flood's time grows sub-linearly with rows (the
// dashed line in the paper is linear scaling); Flood wins at every
// selectivity with the gap narrowing at 10%.

#include "bench/bench_main.h"

namespace flood {
namespace bench {
namespace {

std::vector<BenchRow> Run() {
  std::vector<BenchRow> rows;
  const std::vector<std::string> index_set = {
      "FullScan", "Clustered", "ZOrder", "UBtree",
      "Hyperoctree", "KdTree", "GridFile"};

  // ---- (a) dataset size -------------------------------------------------
  {
    std::vector<std::string> header{"rows"};
    for (const auto& n : index_set) header.push_back(n);
    header.push_back("Flood");
    std::vector<std::vector<std::string>> out;

    const size_t base = ScaledRows(600'000);
    for (double frac : {0.125, 0.25, 0.5, 1.0}) {
      const size_t n = static_cast<size_t>(static_cast<double>(base) * frac);
      const BenchDataset ds = MakeTpchDataset(n, 102);
      const size_t nq = NumQueries(60);
      const auto [train, test] =
          MakeWorkload(ds, WorkloadKind::kOlapSkewed, nq * 2, 112)
              .Split(0.5, 113);
      const BuildContext ctx{&train};

      std::vector<std::string> row{std::to_string(n)};
      for (const auto& name : index_set) {
        auto index = BuildBaseline(name, ds.table, ctx, 1024);
        if (!index.ok()) {
          row.push_back("N/A");
          continue;
        }
        const RunResult r = RunWorkload(**index, test);
        row.push_back(FormatMs(r.avg_ms));
        rows.push_back({"Fig12a/rows" + std::to_string(n) + "/" + name,
                        r.avg_ms, {}});
      }
      auto flood = BuildFlood(ds.table, train);
      FLOOD_CHECK(flood.ok());
      const RunResult r = RunWorkload(*flood->index, test);
      row.push_back(FormatMs(r.avg_ms));
      rows.push_back({"Fig12a/rows" + std::to_string(n) + "/Flood",
                      r.avg_ms,
                      {{"cells", static_cast<double>(
                            flood->index->num_cells())}}});
      out.push_back(row);
    }
    PrintTable("Fig 12a: avg query time (ms) vs dataset size (TPC-H)",
               header, out);
  }

  // ---- (b) query selectivity ---------------------------------------------
  {
    const BenchDataset& ds = GetDataset("tpch");
    std::vector<std::string> header{"selectivity"};
    for (const auto& n : index_set) header.push_back(n);
    header.push_back("Flood");
    std::vector<std::vector<std::string>> out;

    for (double sel : {0.00001, 0.0001, 0.001, 0.01, 0.1}) {
      const size_t nq = NumQueries(60);
      const auto [train, test] =
          MakeWorkload(ds, WorkloadKind::kOlapSkewed, nq * 2, 122, sel)
              .Split(0.5, 123);
      const BuildContext ctx{&train};

      char label[32];
      std::snprintf(label, sizeof(label), "%g%%", sel * 100);
      std::vector<std::string> row{label};
      for (const auto& name : index_set) {
        auto index = BuildBaseline(name, ds.table, ctx, 1024);
        if (!index.ok()) {
          row.push_back("N/A");
          continue;
        }
        const RunResult r = RunWorkload(**index, test);
        row.push_back(FormatMs(r.avg_ms));
        rows.push_back({std::string("Fig12b/sel") + label + "/" + name,
                        r.avg_ms, {}});
      }
      auto flood = BuildFlood(ds.table, train);
      FLOOD_CHECK(flood.ok());
      const RunResult r = RunWorkload(*flood->index, test);
      row.push_back(FormatMs(r.avg_ms));
      rows.push_back({std::string("Fig12b/sel") + label + "/Flood",
                      r.avg_ms, {}});
      out.push_back(row);
    }
    PrintTable("Fig 12b: avg query time (ms) vs query selectivity (TPC-H)",
               header, out);
  }
  return rows;
}

}  // namespace
}  // namespace bench
}  // namespace flood

FLOOD_BENCH_MAIN(flood::bench::Run)
