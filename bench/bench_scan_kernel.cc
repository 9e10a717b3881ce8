// Scan-kernel micro-benchmark: the naive row-at-a-time kernel vs the
// zone-mapped block kernel (query/scan_util.h) at the scalar tier and at
// the active vector tier (AVX2/AVX-512, runtime-dispatched), reported as
// rows/s over block-delta-compressed columns.
//
// Scenarios: a mid-selectivity 2-dim range filter over each standard
// dataset (zone maps help only incidentally — this measures the decode +
// predicate-evaluation win, the vector tiers' target regime), plus a
// "sorted" table filtered on its sort key (zone maps skip or exact-accept
// nearly every block, so all kernels converge).
//
// Each kernel is called directly. Rows are named for the filter step:
// "naive", "block" (ScanRangeBlocks with the ISA masked to scalar, as it
// runs on pre-AVX2 hosts) and "simd" (ScanRangeBlocks at the active tier).
// Block rows carry speedup_vs_naive, and simd rows speedup_vs_block (the
// regression-gated >=2x headline). The simd rows run where AVX2 is
// active; FLOOD_SIMD_LEVEL=scalar leaves them out. FLOOD_BENCH_SCAN_SECONDS
// tunes the per-cell measurement budget (default 0.3).

#include <optional>
#include <string>
#include <vector>

#include "bench/bench_main.h"
#include "query/scan_util.h"
#include "query/visitor.h"

namespace flood {
namespace bench {
namespace {

double MeasureSeconds() {
  const char* env = std::getenv("FLOOD_BENCH_SCAN_SECONDS");
  if (env == nullptr) return 0.3;
  const double v = std::atof(env);
  return v > 0 ? v : 0.3;
}

struct Scenario {
  std::string name;
  const Table* table;
  Query query;
};

/// The naive kernel, and the block kernel at the scalar and active tiers.
enum class Kernel { kNaive, kBlock, kSimd };

const char* KernelName(Kernel k) {
  if (k == Kernel::kNaive) return "naive";
  return k == Kernel::kSimd ? "simd" : "block";
}

/// The rows to measure: all three, simd only where AVX2 is active.
std::vector<Kernel> KernelsToRun() {
  std::vector<Kernel> kernels{Kernel::kNaive, Kernel::kBlock};
  if (simd::ActiveSimdLevel() >= simd::SimdLevel::kAvx2) {
    kernels.push_back(Kernel::kSimd);
  }
  return kernels;
}

/// One full-table pass of `kernel` with a COUNT visitor.
uint64_t ScanOnce(const Scenario& s, Kernel kernel,
                  std::span<const size_t> dims, QueryStats* stats) {
  const size_t n = s.table->num_rows();
  CountVisitor v;
  if (kernel == Kernel::kNaive) {
    ScanRangeNaive(*s.table, s.query, 0, n, dims, v, stats);
  } else if (kernel == Kernel::kBlock) {
    // Measure the scalar tier as it runs where the vector ISA is absent or
    // masked, its block decode included.
    const simd::SimdLevel active = simd::ActiveSimdLevel();
    simd::SetSimdLevelForTest(simd::SimdLevel::kScalar);
    ScanRangeBlocks(*s.table, s.query, 0, n, dims, v, stats);
    simd::SetSimdLevelForTest(active);
  } else {
    ScanRangeBlocks(*s.table, s.query, 0, n, dims, v, stats);
  }
  return v.count();
}

/// A range over the middle `frac` of a dimension's value span.
ValueRange MidBand(const Table& t, size_t dim, double frac) {
  const double mn = static_cast<double>(t.min_value(dim));
  const double mx = static_cast<double>(t.max_value(dim));
  const double mid = (mn + mx) / 2;
  const double half = (mx - mn) * frac / 2;
  return {static_cast<Value>(mid - half), static_cast<Value>(mid + half)};
}

struct KernelResult {
  double rows_per_s = 0;
  double ms_per_pass = 0;
  uint64_t matched = 0;
  double blocks_skipped = 0;  ///< Per pass.
  double blocks_exact = 0;    ///< Per pass.
  double simd_blocks = 0;     ///< Per pass (vector tiers only).
};

KernelResult Measure(const Scenario& s, Kernel kernel) {
  const std::vector<size_t> dims = FilteredDims(s.query);
  const size_t n = s.table->num_rows();
  ScanOnce(s, kernel, dims, nullptr);  // Warm-up: page in the encoded words.
  const int64_t budget_ns =
      static_cast<int64_t>(MeasureSeconds() * 1e9);
  KernelResult r;
  QueryStats stats;
  size_t passes = 0;
  uint64_t matched = 0;
  const Stopwatch sw;
  do {
    matched = ScanOnce(s, kernel, dims, &stats);
    ++passes;
  } while (sw.ElapsedNanos() < budget_ns);
  const double seconds = static_cast<double>(sw.ElapsedNanos()) / 1e9;
  const double rows =
      static_cast<double>(passes) * static_cast<double>(n);
  r.rows_per_s = rows / seconds;
  r.ms_per_pass = seconds * 1000.0 / static_cast<double>(passes);
  r.matched = matched;
  r.blocks_skipped = static_cast<double>(stats.blocks_skipped) /
                     static_cast<double>(passes);
  r.blocks_exact = static_cast<double>(stats.blocks_exact) /
                   static_cast<double>(passes);
  r.simd_blocks = static_cast<double>(stats.simd_blocks) /
                  static_cast<double>(passes);
  return r;
}

std::vector<BenchRow> RunScanKernelBench() {
  std::vector<Scenario> scenarios;
  for (const std::string& name : AllDatasetNames()) {
    const BenchDataset& ds = GetDataset(name);
    Query q(ds.table.num_dims());
    // Mid-selectivity filters on the first two dimensions: most blocks
    // survive the zone maps, so the decode path dominates.
    const ValueRange r0 = MidBand(ds.table, 0, 0.5);
    const ValueRange r1 = MidBand(ds.table, 1, 0.6);
    q.SetRange(0, r0.lo, r0.hi);
    q.SetRange(1, r1.lo, r1.hi);
    scenarios.push_back({name, &ds.table, q});
  }
  // Zone-map showcase: a table sorted on dim 0, filtered to a 10% band of
  // the sort key — nearly every block is skipped or exact-accepted.
  static const Table* sorted_table = [] {
    const size_t n = ScaledRows(400'000);
    Rng rng(777);
    std::vector<Value> key(n);
    for (size_t i = 0; i < n; ++i) key[i] = static_cast<Value>(i);
    std::vector<Value> payload(n);
    for (auto& v : payload) v = rng.UniformInt(0, 1'000'000);
    StatusOr<Table> t =
        Table::FromColumns({std::move(key), std::move(payload)});
    FLOOD_CHECK(t.ok());
    return new Table(std::move(*t));
  }();
  {
    const size_t n = sorted_table->num_rows();
    Query q(2);
    q.SetRange(0, static_cast<Value>(n / 2),
               static_cast<Value>(n / 2 + n / 10));
    scenarios.push_back({"sorted_zonemap", sorted_table, q});
  }

  const std::vector<Kernel> kernels = KernelsToRun();
  std::vector<BenchRow> rows;
  std::vector<std::vector<std::string>> table_out;
  for (const Scenario& s : scenarios) {
    std::optional<KernelResult> naive;
    std::optional<KernelResult> block;
    std::optional<KernelResult> simd;
    for (Kernel k : kernels) {
      const KernelResult r = Measure(s, k);
      if (k == Kernel::kNaive) {
        naive = r;
      } else if (k == Kernel::kBlock) {
        block = r;
      } else {
        simd = r;
      }
      BenchRow row;
      row.name = "ScanKernel/" + s.name + "/" + KernelName(k);
      row.ms = r.ms_per_pass;
      row.counters = {
          {"rows_per_s", r.rows_per_s},
          {"blocks_skipped", r.blocks_skipped},
          {"blocks_exact", r.blocks_exact},
      };
      if (k != Kernel::kNaive && naive.has_value()) {
        row.counters.push_back(
            {"speedup_vs_naive", r.rows_per_s / naive->rows_per_s});
      }
      if (k == Kernel::kSimd) {
        row.counters.push_back({"simd_blocks", r.simd_blocks});
        if (block.has_value()) {
          row.counters.push_back(
              {"speedup_vs_block", r.rows_per_s / block->rows_per_s});
        }
      }
      rows.push_back(std::move(row));
    }
    const double simd_speedup = (block.has_value() && simd.has_value())
                                    ? simd->rows_per_s / block->rows_per_s
                                    : 0.0;
    const KernelResult& shown = simd.has_value()
                                    ? *simd
                                    : block.has_value() ? *block : *naive;
    table_out.push_back(
        {s.name,
         naive.has_value() ? Format(naive->rows_per_s / 1e6) : "-",
         block.has_value() ? Format(block->rows_per_s / 1e6) : "-",
         simd.has_value() ? Format(simd->rows_per_s / 1e6) : "-",
         simd_speedup > 0 ? Format(simd_speedup) + "x" : "-",
         Format(shown.blocks_skipped, 0), Format(shown.blocks_exact, 0),
         std::to_string(shown.matched)});
  }
  PrintTable("Scan kernel: naive vs block vs simd + zone maps "
             "(rows/s, higher is better)",
             {"scenario", "naive Mrows/s", "block Mrows/s", "simd Mrows/s",
              "simd/block", "blk skipped", "blk exact", "matched"},
             table_out);
  return rows;
}

}  // namespace
}  // namespace bench
}  // namespace flood

FLOOD_BENCH_MAIN(flood::bench::RunScanKernelBench);
