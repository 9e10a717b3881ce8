#ifndef FLOOD_BENCH_BENCH_COMMON_H_
#define FLOOD_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/index_registry.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/layout_optimizer.h"
#include "data/datasets.h"
#include "query/executor.h"

namespace flood {
namespace bench {

// ---------------------------------------------------------------------------
// Scale control. The paper runs 30M-300M rows on a 64 GB server; default
// bench scale here regenerates every figure on a single laptop core in
// minutes. FLOOD_BENCH_SCALE multiplies the row counts (e.g. 10 or 100 to
// approach paper scale); FLOOD_BENCH_QUERIES overrides the workload size.
// ---------------------------------------------------------------------------

inline double ScaleFactor() {
  const char* env = std::getenv("FLOOD_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

inline size_t ScaledRows(size_t base) {
  return static_cast<size_t>(static_cast<double>(base) * ScaleFactor());
}

inline size_t NumQueries(size_t fallback = 100) {
  const char* env = std::getenv("FLOOD_BENCH_QUERIES");
  if (env == nullptr) return fallback;
  const long v = std::atol(env);
  return v > 0 ? static_cast<size_t>(v) : fallback;
}

/// Max worker threads for the throughput benches. FLOOD_BENCH_THREADS
/// overrides; the default is one per hardware thread.
inline size_t BenchThreads() {
  const char* env = std::getenv("FLOOD_BENCH_THREADS");
  if (env != nullptr) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return ThreadPool::DefaultConcurrency();
}

/// Base row counts (paper rows in parentheses): sales 30M, tpch 300M,
/// osm 105M, perfmon 230M — scaled to the same 1 : 10 : 3.5 : 7.7 shape.
inline size_t BaseRows(const std::string& name) {
  if (name == "sales") return 150'000;
  if (name == "tpch") return 600'000;
  if (name == "osm") return 400'000;
  if (name == "perfmon") return 450'000;
  return 200'000;
}

/// Cached dataset registry (one instance per process). Thread-safe: the
/// cache mutates under a mutex, and std::map never invalidates element
/// references, so returned references stay valid for the process lifetime.
inline const BenchDataset& GetDataset(const std::string& name) {
  static std::mutex* mu = new std::mutex();
  static std::map<std::string, BenchDataset>* cache =
      new std::map<std::string, BenchDataset>();
  std::lock_guard<std::mutex> lock(*mu);
  auto it = cache->find(name);
  if (it != cache->end()) return it->second;
  const size_t n = ScaledRows(BaseRows(name));
  BenchDataset ds;
  if (name == "sales") {
    ds = MakeSalesDataset(n, 101);
  } else if (name == "tpch") {
    ds = MakeTpchDataset(n, 102);
  } else if (name == "osm") {
    ds = MakeOsmDataset(n, 103);
  } else if (name == "perfmon") {
    ds = MakePerfmonDataset(n, 104);
  } else {
    std::fprintf(stderr, "unknown dataset %s\n", name.c_str());
    std::abort();
  }
  return (*cache)[name] = std::move(ds);
}

inline const std::vector<std::string>& AllDatasetNames() {
  static const std::vector<std::string>* names =
      new std::vector<std::string>{"sales", "tpch", "osm", "perfmon"};
  return *names;
}

/// Dataset axis of bench_throughput's sweep:
/// FLOOD_BENCH_DATASETS="sales,tpch" widens it, "all" runs every dataset,
/// unset defaults to sales (the acceptance dataset).
inline std::vector<std::string> DatasetSweep() {
  const char* env = std::getenv("FLOOD_BENCH_DATASETS");
  if (env == nullptr) return {"sales"};
  const std::string spec(env);
  if (spec == "all") return AllDatasetNames();
  std::vector<std::string> names;
  std::stringstream ss(spec);
  std::string name;
  while (std::getline(ss, name, ',')) {
    if (!name.empty()) names.push_back(name);
  }
  return names.empty() ? std::vector<std::string>{"sales"} : names;
}

// ---------------------------------------------------------------------------
// Cost model: calibrated once per process on a synthetic dataset — §7.6
// shows the weights transfer across datasets, so benches share one model.
// ---------------------------------------------------------------------------

inline const CostModel& SharedCostModel() {
  static const CostModel* model = [] {
    const BenchDataset calib = MakeUniformDataset(60'000, 4, 999);
    Workload queries;
    {
      QueryGenerator gen(calib.table, 1000);
      std::vector<QueryTypeSpec> specs;
      for (size_t k = 1; k <= 3; ++k) {
        QueryTypeSpec spec;
        for (size_t dim = 0; dim < k; ++dim) spec.range_dims.push_back(dim);
        specs.push_back(spec);
      }
      queries = gen.GenerateWorkload(specs, 60, 0.002);
    }
    CostModel::CalibrationOptions opts;
    opts.num_layouts = 8;
    opts.max_queries = 60;
    opts.max_cells = 1 << 14;
    StatusOr<CostModel> m = CostModel::Calibrate(calib.table, queries, opts);
    FLOOD_CHECK(m.ok());
    return new CostModel(std::move(*m));
  }();
  return *model;
}

// ---------------------------------------------------------------------------
// Index construction.
// ---------------------------------------------------------------------------

inline const std::vector<std::string>& AllBaselineNames() {
  static const std::vector<std::string>* names =
      new std::vector<std::string>{"FullScan",    "Clustered", "RStarTree",
                                   "ZOrder",      "UBtree",    "Hyperoctree",
                                   "KdTree",      "GridFile"};
  return *names;
}

/// Builds a baseline through the IndexRegistry (any registered name or
/// alias works). `page_size` tunes page-structured indexes (ignored by the
/// others). Returns an error status when construction fails (e.g. Grid
/// File budget on skewed data -> paper's "N/A").
inline StatusOr<std::unique_ptr<MultiDimIndex>> BuildBaseline(
    const std::string& name, const Table& table, const BuildContext& ctx,
    size_t page_size = 1024) {
  IndexOptions opts;
  opts.SetInt("page_size", static_cast<int64_t>(page_size));
  const StatusOr<std::string> canonical =
      IndexRegistry::Global().Resolve(name);
  if (canonical.ok() && *canonical == "grid_file") {
    // The grid file needs roomier pages to stay inside its directory
    // budget on the bench datasets.
    opts.SetInt("page_size",
                static_cast<int64_t>(std::max<size_t>(page_size, 512)));
  }
  StatusOr<std::unique_ptr<MultiDimIndex>> index =
      IndexRegistry::Global().Create(name, opts);
  if (!index.ok()) return index.status();
  FLOOD_RETURN_IF_ERROR((*index)->Build(table, ctx));
  return index;
}

/// Learns a layout and builds Flood with bench-scale optimizer settings.
inline StatusOr<OptimizedFlood> BuildFlood(const Table& table,
                                           const Workload& train,
                                           uint64_t max_cells = 0) {
  LayoutOptimizer::Options opts;
  opts.data_sample_size = 20'000;
  opts.query_sample_size = 50;
  opts.max_cells =
      max_cells > 0 ? max_cells
                    : std::max<uint64_t>(256, table.num_rows() / 16);
  return BuildOptimizedFlood(table, train, SharedCostModel(), opts);
}

// ---------------------------------------------------------------------------
// Workload execution and reporting.
// ---------------------------------------------------------------------------

struct RunResult {
  double avg_ms = 0;       ///< Average end-to-end query time.
  double avg_index_ms = 0; ///< Avg projection/traversal (+refine) time.
  double avg_scan_ms = 0;
  QueryStats stats;        ///< Accumulated counters.
  size_t queries = 0;
};

inline RunResult RunWorkload(const MultiDimIndex& index,
                             const Workload& workload) {
  RunResult r;
  r.queries = workload.size();
  for (const Query& q : workload) {
    (void)ExecuteAggregate(index, q, &r.stats);
  }
  const double nq = std::max<double>(1.0, static_cast<double>(r.queries));
  r.avg_ms = static_cast<double>(r.stats.total_ns) / nq / 1e6;
  r.avg_index_ms =
      static_cast<double>(r.stats.index_ns + r.stats.refine_ns) / nq / 1e6;
  r.avg_scan_ms = static_cast<double>(r.stats.scan_ns) / nq / 1e6;
  return r;
}

/// Facade flavor: runs the workload through Database::RunBatch — the
/// delta-aware public path, so staged writes are reflected — and reports
/// the same averages from the batch's merged stats.
inline RunResult RunWorkload(Database& db, const Workload& workload) {
  const BatchResult batch = db.RunBatch(workload);
  FLOOD_CHECK(batch.status.ok());
  RunResult r;
  r.queries = workload.size();
  r.stats = batch.stats;
  const double nq = std::max<double>(1.0, static_cast<double>(r.queries));
  r.avg_ms = static_cast<double>(r.stats.total_ns) / nq / 1e6;
  r.avg_index_ms =
      static_cast<double>(r.stats.index_ns + r.stats.refine_ns) / nq / 1e6;
  r.avg_scan_ms = static_cast<double>(r.stats.scan_ns) / nq / 1e6;
  return r;
}

/// Opens a Database over `table` with the given registry index name and
/// training workload (the facade-era BuildBaseline/BuildFlood).
inline StatusOr<Database> OpenDatabase(const std::string& index_name,
                                       const Table& table,
                                       const Workload& train,
                                       DatabaseOptions options = {}) {
  options.index_name = index_name;
  options.training_workload = train;
  return Database::Open(table, std::move(options));
}

/// Tries `candidates` page sizes on a training workload sample and returns
/// the fastest (the paper's "we tuned the baseline approaches as much as
/// possible per workload").
inline size_t TunePageSize(const std::string& name, const Table& table,
                           const BuildContext& ctx, const Workload& train,
                           const std::vector<size_t>& candidates) {
  size_t best = candidates.front();
  double best_ms = -1;
  const Workload probe = train.Sample(20, 777);
  for (size_t page : candidates) {
    auto index = BuildBaseline(name, table, ctx, page);
    if (!index.ok()) continue;
    const RunResult r = RunWorkload(**index, probe);
    if (best_ms < 0 || r.avg_ms < best_ms) {
      best_ms = r.avg_ms;
      best = page;
    }
  }
  return best;
}

/// Fixed-width markdown-ish table printer shared by every bench binary.
inline void PrintTable(const std::string& title,
                       const std::vector<std::string>& header,
                       const std::vector<std::vector<std::string>>& rows) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::vector<size_t> width(header.size());
  for (size_t c = 0; c < header.size(); ++c) width[c] = header[c].size();
  for (const auto& row : rows) {
    for (size_t c = 0; c < row.size() && c < width.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  auto print_row = [&width](const std::vector<std::string>& row) {
    std::printf("|");
    for (size_t c = 0; c < width.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf(" %-*s |", static_cast<int>(width[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(header);
  std::printf("|");
  for (size_t c = 0; c < width.size(); ++c) {
    std::printf("%s|", std::string(width[c] + 2, '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows) print_row(row);
  std::fflush(stdout);
}

inline std::string FormatMs(double ms) {
  char buf[64];
  if (ms >= 100) {
    std::snprintf(buf, sizeof(buf), "%.0f", ms);
  } else if (ms >= 1) {
    std::snprintf(buf, sizeof(buf), "%.2f", ms);
  } else {
    std::snprintf(buf, sizeof(buf), "%.4f", ms);
  }
  return buf;
}

inline std::string FormatBytes(size_t bytes) {
  char buf[64];
  if (bytes >= (size_t{1} << 30)) {
    std::snprintf(buf, sizeof(buf), "%.2fGB",
                  static_cast<double>(bytes) / (1 << 30));
  } else if (bytes >= (size_t{1} << 20)) {
    std::snprintf(buf, sizeof(buf), "%.2fMB",
                  static_cast<double>(bytes) / (1 << 20));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fkB",
                  static_cast<double>(bytes) / 1024);
  } else {
    std::snprintf(buf, sizeof(buf), "%zuB", bytes);
  }
  return buf;
}

inline std::string Format(double v, int digits = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

// ---------------------------------------------------------------------------
// google-benchmark integration: experiments run once (deterministically) in
// main(); each measured configuration is then registered as a manual-time
// benchmark so results also appear in the standard benchmark report.
// ---------------------------------------------------------------------------

struct BenchRow {
  std::string name;  ///< e.g. "Fig7/tpch/Flood".
  double ms = 0;     ///< Reported as the iteration time.
  std::vector<std::pair<std::string, double>> counters;
};

}  // namespace bench
}  // namespace flood

#endif  // FLOOD_BENCH_BENCH_COMMON_H_
