// Fig. 16 (§7.7 "Sampling queries"): layout learning time and resulting
// query time as the optimizer's *query* sample shrinks (data sample held
// small, as in the paper's conservative setting).
//
// Paper shape to check: a handful of queries per query type suffices;
// variance grows as the sample shrinks.

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
        MakeWorkload(ds, WorkloadKind::kOlapSkewed, nq * 2, 162).Split(0.5, 163);
    const BuildContext ctx{&train};

    std::vector<std::vector<std::string>> out;
    for (size_t sample : {size_t{3}, size_t{5}, size_t{10}, size_t{25},
                          train.size()}) {
      // Three trials to expose the variance the paper highlights.
      double worst_ms = 0;
      double best_ms = -1;
      double learn_s = 0;
      for (uint64_t trial = 0; trial < 3; ++trial) {
        LayoutOptimizer::Options opts;
        opts.data_sample_size = 20'000;
        opts.query_sample_size = sample;
        opts.seed = 7 + trial * 31;
        opts.max_cells = std::max<uint64_t>(256, ds.table.num_rows() / 16);
        auto flood =
            BuildOptimizedFlood(ds.table, train, SharedCostModel(), opts);
        FLOOD_CHECK(flood.ok());
        const RunResult r = RunWorkload(*flood->index, test);
        worst_ms = std::max(worst_ms, r.avg_ms);
        best_ms = best_ms < 0 ? r.avg_ms : std::min(best_ms, r.avg_ms);
        learn_s += flood->learn.learning_seconds;
      }
      out.push_back({std::to_string(std::min(sample, train.size())),
                     Format(learn_s / 3, 3), FormatMs(best_ms),
                     FormatMs(worst_ms)});
      rows.push_back({"Fig16/" + ds_name + "/queries" +
                          std::to_string(std::min(sample, train.size())),
                      worst_ms,
                      {{"learn_s", learn_s / 3},
                       {"best_ms", best_ms}}});
    }
    PrintTable("Fig 16 (" + ds_name +
                   "): query-sample size vs learning time & query time",
               {"sample queries", "learning s", "best avg ms",
                "worst avg ms"},
               out);
  }
  return rows;
}

}  // namespace
}  // namespace bench
}  // namespace flood

FLOOD_BENCH_MAIN(flood::bench::Run)
