// Tab. 4 (§7.7): index creation time per index per dataset. Flood's time
// splits into learning (layout optimization on samples) and loading
// (FloodIndex::Build over the learned layout). Loading is linear passes:
// flattener training on a sample; cell assignment, where each grid
// dimension's column boundaries are bisected once and each row counts the
// boundaries at or below its value; a radix sort of (cell, row) keys
// costing O(n) per 11-bit digit of the cell id; a sort of each multi-row
// cell by its sort value; and the table reorder (each column decoded once,
// gathered, packed block by block), cell table and per-cell models. Every
// baseline's build ends in the same Table::Reorder.
//
// Paper shape to check: Flood's total creation time is competitive — same
// order of magnitude as the tree baselines, far from the worst.

#include "bench/bench_main.h"
#include "common/timer.h"

namespace flood {
namespace bench {
namespace {

std::vector<BenchRow> Run() {
  std::vector<BenchRow> rows;
  std::vector<std::string> header{"index"};
  for (const auto& n : AllDatasetNames()) header.push_back(n);
  std::map<std::string, std::vector<std::string>> cells;

  for (const std::string& ds_name : AllDatasetNames()) {
    const BenchDataset& ds = GetDataset(ds_name);
    const size_t nq = NumQueries(60);
    const Workload train =
        MakeWorkload(ds, WorkloadKind::kOlapSkewed, nq, 182);
    const BuildContext ctx{&train};

    auto flood = BuildFlood(ds.table, train);
    FLOOD_CHECK(flood.ok());
    cells["Flood Learning"].push_back(
        Format(flood->learn.learning_seconds, 3));
    cells["Flood Loading"].push_back(Format(flood->load_seconds, 3));
    cells["Flood Total"].push_back(Format(
        flood->learn.learning_seconds + flood->load_seconds, 3));
    rows.push_back({"Tab4/" + ds_name + "/Flood",
                    (flood->learn.learning_seconds + flood->load_seconds) *
                        1000.0,
                    {{"learn_s", flood->learn.learning_seconds},
                     {"load_s", flood->load_seconds}}});

    for (const std::string& name : AllBaselineNames()) {
      if (name == "FullScan") continue;
      Stopwatch sw;
      auto index = BuildBaseline(name, ds.table, ctx, 1024);
      const double seconds = sw.ElapsedSeconds();
      if (!index.ok()) {
        cells[name].push_back("N/A");
        continue;
      }
      cells[name].push_back(Format(seconds, 3));
      rows.push_back({"Tab4/" + ds_name + "/" + name, seconds * 1000.0, {}});
    }
  }

  std::vector<std::vector<std::string>> out;
  for (const std::string& name :
       {"Flood Learning", "Flood Loading", "Flood Total", "Clustered",
        "ZOrder", "UBtree", "Hyperoctree", "KdTree", "GridFile",
        "RStarTree"}) {
    std::vector<std::string> row{name};
    for (const auto& c : cells[name]) row.push_back(c);
    out.push_back(row);
  }
  PrintTable("Table 4: index creation time (seconds)", header, out);
  return rows;
}

}  // namespace
}  // namespace bench
}  // namespace flood

FLOOD_BENCH_MAIN(flood::bench::Run)
