// Fig. 9 (§7.4 "Different Workload Characteristics"): baselines stay tuned
// for the default OLAP workload while the live workload changes to the
// paper's eight variants; Flood re-learns its layout per workload.
//
//   FD fewer dims | MD all dims | O skewed OLAP | Ou uniform OLAP |
//   O1/O2 point lookups on one/two keys | OO mixed | ST single type
//
// Paper shape to check: Flood wins every column; the gap is largest on
// workloads unlike the tuning workload (e.g. O1/O2 point lookups).

#include "bench/bench_main.h"

namespace flood {
namespace bench {
namespace {

struct Variant {
  const char* label;
  WorkloadKind kind;
};

std::vector<BenchRow> Run() {
  std::vector<BenchRow> rows;
  const std::vector<Variant> variants = {
      {"FD", WorkloadKind::kFewerDims},  {"MD", WorkloadKind::kManyDims},
      {"OO", WorkloadKind::kMixed},      {"O", WorkloadKind::kOlapSkewed},
      {"Ou", WorkloadKind::kOlapUniform},{"O1", WorkloadKind::kOltpSingleKey},
      {"O2", WorkloadKind::kOltpTwoKey}, {"ST", WorkloadKind::kSingleType},
  };

  for (const std::string& ds_name : {std::string("tpch"),
                                     std::string("osm")}) {
    const BenchDataset& ds = GetDataset(ds_name);
    const size_t nq = NumQueries(80);

    // Baselines are tuned once, for the default OLAP workload.
    const Workload tuning =
        MakeWorkload(ds, WorkloadKind::kOlapSkewed, nq, 72);
    const BuildContext ctx{&tuning};

    std::map<std::string, std::unique_ptr<MultiDimIndex>> baselines;
    for (const std::string& name :
         {"ZOrder", "UBtree", "Hyperoctree", "KdTree", "GridFile"}) {
      auto index = BuildBaseline(name, ds.table, ctx, 1024);
      if (index.ok()) baselines[name] = std::move(*index);
    }

    std::vector<std::string> header{"index"};
    for (const auto& v : variants) header.push_back(v.label);
    std::map<std::string, std::vector<std::string>> cells;

    for (const Variant& v : variants) {
      const auto [train, test] =
          MakeWorkload(ds, v.kind, nq * 2, 73).Split(0.5, 74);
      for (auto& [name, index] : baselines) {
        const RunResult r = RunWorkload(*index, test);
        cells[name].push_back(FormatMs(r.avg_ms));
        rows.push_back({"Fig9/" + ds_name + "/" + v.label + "/" + name,
                        r.avg_ms,
                        {}});
      }
      // Flood re-learns for each workload (its headline capability).
      auto flood = BuildFlood(ds.table, train);
      FLOOD_CHECK(flood.ok());
      const RunResult r = RunWorkload(*flood->index, test);
      cells["Flood"].push_back(FormatMs(r.avg_ms));
      rows.push_back({"Fig9/" + ds_name + "/" + v.label + "/Flood",
                      r.avg_ms,
                      {{"learn_s", flood->learn.learning_seconds}}});
    }

    std::vector<std::vector<std::string>> out;
    for (const std::string& name :
         {"Flood", "ZOrder", "UBtree", "Hyperoctree", "KdTree", "GridFile"}) {
      if (cells.count(name) == 0) continue;
      std::vector<std::string> row{name};
      for (const auto& c : cells[name]) row.push_back(c);
      out.push_back(row);
    }
    PrintTable("Fig 9 (" + ds_name +
                   "): avg query time (ms) across workload variants",
               header, out);
  }
  return rows;
}

}  // namespace
}  // namespace bench
}  // namespace flood

FLOOD_BENCH_MAIN(flood::bench::Run)
