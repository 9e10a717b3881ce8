#ifndef FLOOD_BENCH_BENCH_MAIN_H_
#define FLOOD_BENCH_BENCH_MAIN_H_

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

namespace flood {
namespace bench {

/// Registers pre-computed experiment results as manual-time benchmarks
/// (one "iteration" each) so they show up in google-benchmark's report.
inline void RegisterResults(const std::vector<BenchRow>& rows) {
  for (const BenchRow& row : rows) {
    const double seconds = row.ms / 1000.0;
    auto counters = row.counters;
    benchmark::RegisterBenchmark(
        row.name.c_str(),
        [seconds, counters](benchmark::State& state) {
          for (auto _ : state) {
            state.SetIterationTime(seconds);
          }
          for (const auto& [k, v] : counters) {
            state.counters[k] = v;
          }
        })
        ->UseManualTime()
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

/// Shared main: run the experiment (expensive part, exactly once), register
/// its rows, emit the google-benchmark report, then print the paper-style
/// tables.
#define FLOOD_BENCH_MAIN(ExperimentFn)                                   \
  int main(int argc, char** argv) {                                      \
    benchmark::Initialize(&argc, argv);                                  \
    std::vector<::flood::bench::BenchRow> rows__ = ExperimentFn();       \
    ::flood::bench::RegisterResults(rows__);                             \
    benchmark::RunSpecifiedBenchmarks();                                 \
    benchmark::Shutdown();                                               \
    return 0;                                                            \
  }

}  // namespace bench
}  // namespace flood

#endif  // FLOOD_BENCH_BENCH_MAIN_H_
