// Fig. 15 (§7.7 "Sampling records"): layout learning time and resulting
// query time as the optimizer's *data* sample shrinks. The hyperoctree's
// creation time is shown for comparison, as in the paper.
//
// Paper shape to check: query time stays flat down to sub-percent samples
// while learning time drops dramatically.

#include "bench/bench_main.h"
#include "common/timer.h"

namespace flood {
namespace bench {
namespace {

std::vector<BenchRow> Run() {
  std::vector<BenchRow> rows;

  for (const std::string& ds_name : AllDatasetNames()) {
    const BenchDataset& ds = GetDataset(ds_name);
    const size_t nq = NumQueries(60);
    const auto [train, test] =
        MakeWorkload(ds, WorkloadKind::kOlapSkewed, nq * 2, 152).Split(0.5, 153);
    const BuildContext ctx{&train};

    // Hyperoctree creation-time yardstick.
    double octree_create_s = 0;
    {
      Stopwatch sw;
      auto octree = BuildBaseline("Hyperoctree", ds.table, ctx, 1024);
      octree_create_s = sw.ElapsedSeconds();
      FLOOD_CHECK(octree.ok());
    }

    std::vector<std::vector<std::string>> out;
    for (size_t sample :
         {size_t{1000}, size_t{5000}, size_t{20'000}, size_t{100'000},
          ds.table.num_rows()}) {
      if (sample > ds.table.num_rows()) continue;
      LayoutOptimizer::Options opts;
      opts.data_sample_size = sample;
      opts.query_sample_size = 50;
      opts.max_cells = std::max<uint64_t>(256, ds.table.num_rows() / 16);
      auto flood =
          BuildOptimizedFlood(ds.table, train, SharedCostModel(), opts);
      FLOOD_CHECK(flood.ok());
      const RunResult r = RunWorkload(*flood->index, test);
      const double pct = 100.0 * static_cast<double>(sample) /
                         static_cast<double>(ds.table.num_rows());
      out.push_back({std::to_string(sample) + " (" + Format(pct, 2) + "%)",
                     Format(flood->learn.learning_seconds, 3),
                     FormatMs(r.avg_ms)});
      rows.push_back({"Fig15/" + ds_name + "/sample" + std::to_string(sample),
                      r.avg_ms,
                      {{"learn_s", flood->learn.learning_seconds}}});
    }
    out.push_back({"(hyperoctree creation)", Format(octree_create_s, 3),
                   "-"});
    PrintTable("Fig 15 (" + ds_name +
                   "): data-sample size vs learning time & query time",
               {"sample rows", "learning s", "avg query ms"}, out);
  }
  return rows;
}

}  // namespace
}  // namespace bench
}  // namespace flood

FLOOD_BENCH_MAIN(flood::bench::Run)
