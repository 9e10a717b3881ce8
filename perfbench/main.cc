// The repository benchmark. One run:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//
// generates the workload's table and query pool from the seed, answers the
// pool by brute force, sets the serving endpoint up (five times without
// tracing, reporting the median), then drives it over the wire: an
// open-loop phase of seeded Poisson arrivals (40% of --seconds) and a
// closed-loop saturation phase (the rest). With --trace 1 it sets up once,
// runs the same phases and adds the traced per-layer pass. The last line of
// stdout is the JSON result; README.md defines every metric.

#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <optional>
#include <string>

#include "core/cost_model.h"
#include "core/flood_index.h"
#include "core/layout_optimizer.h"
#include "perfbench/harness.h"
#include "perfbench/wire_load.h"
#include "perfbench/workloads.h"

namespace flood {
namespace perfbench {
namespace {

constexpr size_t kLoadConnections = 3;  ///< Plus one control connection.
/// Setups per run; setup_s is their median.
constexpr int kSetups = 5;
constexpr double kWarmupSeconds = 0.5;
constexpr size_t kCheckpointQueries = 64;
/// Open-loop segments: at most this many, each expecting this many reads
/// (so that ten lie beyond its p99).
constexpr size_t kMaxSegments = 6;
constexpr double kReadsPerSegment = 1'100;
/// The saturation phase runs as closed-loop rounds of this length.
constexpr double kRoundSeconds = 0.5;
/// Probe queries of the traced pass, and passes over them.
constexpr size_t kTraceQueries = 200;
constexpr int kTraceRounds = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  int trace = 0;
  std::string workdir = ".bench_build/run";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds >= 1 &&
         args->seconds <= 60 && (args->trace == 0 || args->trace == 1);
}

double Median(std::vector<double> v) { return NearestRank(std::move(v), 50); }

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

size_t OpenLoopSegments(const WorkloadSpec& spec, double open_s) {
  const double reads = spec.rate * open_s * (1 - spec.write_fraction);
  return std::clamp<size_t>(static_cast<size_t>(reads / kReadsPerSegment), 1,
                            kMaxSegments);
}

/// CPU seconds of the whole process, and of the calling thread. Unlike
/// wall time, CPU time leaves out the time the host takes a virtual CPU
/// away, so it repeats on a shared machine.
double CpuS(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// CPU the server spends while the calling thread (the load generator)
/// drives it: process CPU time less the calling thread's.
class ServerCpu {
 public:
  ServerCpu()
      : process_(CpuS(CLOCK_PROCESS_CPUTIME_ID)),
        self_(CpuS(CLOCK_THREAD_CPUTIME_ID)) {}
  double Seconds() const {
    return (CpuS(CLOCK_PROCESS_CPUTIME_ID) - process_) -
           (CpuS(CLOCK_THREAD_CPUTIME_ID) - self_);
  }

 private:
  double process_;
  double self_;
};

int64_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size) : 0;
}

/// Inserted rows a write sequence leaves live, oldest first, and the next
/// insert ordinal.
struct LiveRows {
  std::deque<uint32_t> live;
  uint32_t inserts = 0;

  /// The next write: an insert, or when `del` is set and a row is live, a
  /// delete of the oldest live row.
  Arrival NextWrite(bool del) const {
    Arrival a;
    if (del && !live.empty()) {
      a.op = Arrival::Op::kDelete;
      a.arg = live.front();
    } else {
      a.op = Arrival::Op::kInsert;
      a.arg = inserts;
    }
    return a;
  }

  void Apply(const Arrival& a) {
    if (a.op == Arrival::Op::kInsert) {
      live.push_back(a.arg);
      inserts = std::max(inserts, a.arg + 1);
    } else if (a.op == Arrival::Op::kDelete) {
      live.erase(std::find(live.begin(), live.end(), a.arg));
    }
  }
};

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const double open_s = 0.4 * args.seconds;
  const double saturate_s = args.seconds - open_s;
  const bool writes = spec->write_fraction > 0;

  // --- Inputs and the oracle (outside every timed section) ----------------
  const Inputs in = MakeInputs(*spec, args.seed);
  const Table& table = in.data.table;
  const std::vector<Query>& pool = in.pool;
  std::vector<Answer> truth;
  const int64_t oracle_start = NowNs();
  {
    const Oracle oracle(table);
    for (const Query& q : pool) truth.push_back(oracle.Run(q));
  }
  std::printf("workload=%s seed=%llu rows=%zu pool=%zu rate=%.0f/s "
              "open=%.1fs saturate=%.1fs\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              table.num_rows(), pool.size(), spec->rate, open_s, saturate_s);
  std::printf("oracle: %zu pool queries brute-forced in %.2f s\n",
              pool.size(), static_cast<double>(NowNs() - oracle_start) / 1e9);

  // --- Setup: the median of several, the last one kept --------------------
  std::vector<double> setup_wall_s, setup_cpu_s;
  std::unique_ptr<Endpoint> ep;
  for (int k = 0; k < (args.trace ? 1 : kSetups); ++k) {
    ep.reset();
    const int64_t t0 = NowNs();
    const double c0 = CpuS(CLOCK_PROCESS_CPUTIME_ID);
    StatusOr<std::unique_ptr<Endpoint>> opened =
        Endpoint::Open(*spec, table, in.train, "ep");
    if (!opened.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   opened.status().ToString().c_str());
      return 2;
    }
    ep = std::move(*opened);
    setup_wall_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_cpu_s.push_back(CpuS(CLOCK_PROCESS_CPUTIME_ID) - c0);
  }
  const double rows = static_cast<double>(table.num_rows());
  const double table_bpr = static_cast<double>(ep->TableBytes()) / rows;
  const double index_bpr = static_cast<double>(ep->IndexBytes()) / rows;
  Database& db0 = ep->shard(0);

  // --- Connections and checks ----------------------------------------------
  StatusOr<std::unique_ptr<WireLoad>> load = Status::Internal("not connected");
  Traffic traffic;
  traffic.pool = &pool;
  traffic.write_row = [&](uint32_t k) {
    return InsertedRow(table, args.seed, k);
  };
  traffic.check_read = [&](const Request& r, const serve::WireQueryResult& w) {
    const Answer got{w.count, w.sum};
    if (!writes) return SameAnswer(pool[r.arg], truth[r.arg], got);
    // Reads race the writes: the count lies between the base answer and
    // the base answer plus every row inserted so far.
    return got.count >= truth[r.arg].count &&
           got.count <= truth[r.arg].count + (*load)->inserts_sent();
  };
  load = WireLoad::Connect(ep->socket_path(), kLoadConnections, traffic);
  StatusOr<serve::Client> control =
      serve::Client::Connect("unix:" + ep->socket_path());
  if (!load.ok() || !control.ok()) {
    std::fprintf(stderr, "connect failed\n");
    return 2;
  }

  // Exact check at a write-quiescent point: base answers plus the live
  // inserted rows, for a probe batch of pool queries.
  LiveRows live;
  uint64_t mismatches = 0;
  auto checkpoint = [&]() {
    if (!writes) return;
    std::vector<Query> probe;
    std::vector<Answer> want;
    for (size_t i = 0; i < pool.size() && probe.size() < kCheckpointQueries;
         ++i) {
      Answer a = truth[i];
      for (uint32_t k : live.live) {
        AddRow(pool[i], InsertedRow(table, args.seed, k), &a);
      }
      probe.push_back(pool[i]);
      want.push_back(a);
    }
    StatusOr<serve::BatchResultResponse> reply = control->RunBatch(probe);
    if (!reply.ok() || reply->code != serve::WireCode::kOk ||
        reply->results.size() != probe.size()) {
      ++mismatches;
      return;
    }
    for (size_t i = 0; i < probe.size(); ++i) {
      const Answer got{reply->results[i].count, reply->results[i].sum};
      if (!SameAnswer(probe[i], want[i], got)) ++mismatches;
    }
  };

  // --- Open loop ---------------------------------------------------------
  (void)(*load)->OpenLoop(PoissonSchedule(args.seed ^ 0x3A3A, spec->rate,
                                          kWarmupSeconds, pool.size(), 0));
  const std::vector<Arrival> schedule = PoissonSchedule(
      args.seed, spec->rate, open_s, pool.size(), spec->write_fraction);
  const uint64_t compactions_before = db0.compactions();
  const serve::RouterCounters router_before =
      ep->router() ? ep->router()->counters() : serve::RouterCounters{};
  // The schedule runs as consecutive segments, each drained before the
  // next, so a stall of the host backs up one segment only; latencies are
  // medians over the segments' percentiles.
  const size_t segments = OpenLoopSegments(*spec, open_s);
  const int64_t segment_ns = static_cast<int64_t>(open_s * 1e9) /
                             static_cast<int64_t>(segments);
  std::vector<std::vector<double>> read_segments, write_segments;
  std::vector<double> read_ms, send_lag_ms;
  uint64_t attempted = 0, failed = 0;
  auto fold = [&](const PhaseStats& p) {
    attempted += p.attempted;
    failed += p.failed;
    mismatches += p.wrong;
  };
  for (size_t k = 0; k < segments; ++k) {
    const int64_t lo = static_cast<int64_t>(k) * segment_ns;
    std::vector<Arrival> part;
    for (const Arrival& a : schedule) {
      if (a.at_ns >= lo && (a.at_ns < lo + segment_ns || k + 1 == segments)) {
        part.push_back({a.at_ns - lo, a.op, a.arg});
      }
    }
    const PhaseStats seg = (*load)->OpenLoop(part);
    fold(seg);
    read_segments.push_back(LatenciesMs(seg.reads));
    write_segments.push_back(LatenciesMs(seg.writes));
    read_ms.insert(read_ms.end(), read_segments.back().begin(),
                   read_segments.back().end());
    send_lag_ms.insert(send_lag_ms.end(), seg.send_lag_ms.begin(),
                       seg.send_lag_ms.end());
  }
  const serve::RouterCounters router_after =
      ep->router() ? ep->router()->counters() : serve::RouterCounters{};
  // With every write on one connection in schedule order, the count of
  // compactions is fixed by the seed.
  const uint64_t compactions = db0.compactions() - compactions_before;
  for (const Arrival& a : schedule) live.Apply(a);
  checkpoint();

  // The traced pass runs here, while the state (and so every count it
  // reads) is still fixed by the seed.
  std::optional<LayerTrace> trace;
  if (args.trace) {
    const std::vector<Query> probe(
        pool.begin(), pool.begin() + std::min(pool.size(), kTraceQueries));
    StatusOr<LayerTrace> t = TraceLayers(ep.get(), &*control, probe, kTraceRounds);
    if (!t.ok()) {
      std::fprintf(stderr, "trace failed: %s\n", t.status().ToString().c_str());
      return 2;
    }
    trace = *t;
  }

  // --- Saturation: closed loop, reads only ------------------------------
  // Every round walks the pool from its start, so rounds cover the same
  // queries and differ only by how much the host disturbed them.
  size_t next_query = 0;
  auto next = [&] { return static_cast<uint32_t>(next_query++ % pool.size()); };
  // Short rounds: contention from other tenants of the host only ever adds
  // CPU time, so the least-contended round's CPU per read is the one that
  // repeats.
  std::vector<double> round_cpu_us, round_qps;
  size_t sat_reads = 0;
  const size_t rounds =
      std::max<size_t>(1, static_cast<size_t>(saturate_s / kRoundSeconds));
  const serve::ServerCounters serve_before = ep->server().counters();
  for (size_t r = 0; r < rounds; ++r) {
    next_query = 0;
    const ServerCpu cpu;
    const PhaseStats sat = (*load)->Saturate(saturate_s / rounds, next);
    const double reads = static_cast<double>(std::max<size_t>(1, sat.reads.size()));
    round_cpu_us.push_back(cpu.Seconds() * 1e6 / reads);
    round_qps.push_back(RateWithin(sat.reads, sat.seconds));
    sat_reads += sat.reads.size();
    fold(sat);
  }
  const serve::ServerCounters serve_after = ep->server().counters();
  checkpoint();
  const double read_cpu_us =
      *std::min_element(round_cpu_us.begin(), round_cpu_us.end());
  const double max_qps = Median(round_qps);
  const double read_p50 = MedianOverSegments(read_segments, 50);
  const double read_p99 = MedianOverSegments(read_segments, 99);
  std::printf("setup: median of %zu = %.4f CPU s, %.4f wall s\n",
              setup_cpu_s.size(), Median(setup_cpu_s), Median(setup_wall_s));
  std::printf("%s\n", DescribeLatency("open-loop reads", read_ms).c_str());
  std::printf("open-loop reads, median over %zu segments: p50=%.4f ms, "
              "p99=%.4f ms\n",
              segments, read_p50, read_p99);
  std::printf("%s\n", DescribeLatency("generator send lag", send_lag_ms).c_str());
  std::printf("saturation: %zu reads answered in %zu rounds; %.1f reads/s "
              "(median round); server CPU per read %.3f us (least round), "
              "%.3f us (median round)\n",
              sat_reads, rounds, max_qps, read_cpu_us,
              Median(round_cpu_us));

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_cpu_s), "s"},
        {"read_cpu_us", read_cpu_us, "us"},
        {"bytes_per_row", table_bpr + index_bpr, "B"},
    };
  } else {
    const LayerTrace& t = *trace;
    std::printf("trace: wire %.2f us = serve %.2f + router %.2f + api %.2f + "
                "delta %.2f + project %.2f + refine %.2f + scan %.2f "
                "(unattributed %.3f)\n",
                t.wire_us, t.serve_self_us, t.router_self_us, t.api_self_us,
                t.delta_us, t.project_us, t.refine_us, t.scan_us,
                t.unattributed);

    // Writes in process: per-call time, WAL growth, compaction pauses.
    std::vector<double> insert_us, pause_ms;
    double wal_bytes = 0, wal_writes = 0, snapshot_ms = 0;
    if (writes) {
      for (size_t i = 0; i < spec->traced_writes; ++i) {
        const Arrival a = live.NextWrite(i % 3 == 2);
        const std::vector<Value> row = InsertedRow(table, args.seed, a.arg);
        const uint64_t c0 = db0.compactions();
        const int64_t wal0 = FileSize(ep->wal_path());
        const int64_t t0 = NowNs();
        bool ok = true;
        if (a.op == Arrival::Op::kInsert) {
          ok = db0.Insert(row).ok();
        } else {
          StatusOr<size_t> deleted = db0.Delete(row);
          ok = deleted.ok() && *deleted == 1;
        }
        const double us = static_cast<double>(NowNs() - t0) / 1e3;
        if (!ok) ++mismatches;
        live.Apply(a);
        if (db0.compactions() != c0) {
          pause_ms.push_back(us / 1e3);
          continue;
        }
        if (a.op == Arrival::Op::kInsert) insert_us.push_back(us);
        wal_bytes += static_cast<double>(FileSize(ep->wal_path()) - wal0);
        wal_writes += 1;
      }
      checkpoint();
      const int64_t t0 = NowNs();
      if (!db0.Save("end.snap").ok()) ++mismatches;
      snapshot_ms = static_cast<double>(NowNs() - t0) / 1e6;
    }

    LayoutOptimizer::Options lopts;
    lopts.max_cells = FloodIndex::Options{}.max_cells;
    const CostModel cost_model = CostModel::Default();
    const int64_t learn0 = NowNs();
    (void)LayoutOptimizer(&cost_model, lopts).Optimize(table, in.train);
    const double learn_s = static_cast<double>(NowNs() - learn0) / 1e9;

    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
    auto diff = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
    const serve::ServerCounters end = ep->server().counters();
    const double sent =
        diff(router_after.subqueries_sent, router_before.subqueries_sent);
    const double pruned =
        diff(router_after.subqueries_pruned, router_before.subqueries_pruned);
    metrics = {
        {"serve.self_us", t.serve_self_us, "us"},
        {"serve.frames_per_submit",
         ratio(diff(serve_after.frames_decoded, serve_before.frames_decoded),
               diff(serve_after.batches_submitted, serve_before.batches_submitted)),
         "ratio"},
        {"serve.queue_depth_hwm", static_cast<double>(end.queue_depth_hwm), "count"},
        {"serve.bytes_per_query",
         ratio(static_cast<double>(end.bytes_in + end.bytes_out),
               static_cast<double>(end.queries_executed + end.writes_applied)),
         "B"},
        {"router.self_us", t.router_self_us, "us"},
        {"router.prune_fraction", ratio(pruned, sent + pruned), "fraction"},
        {"router.subqueries_per_query",
         ratio(sent, diff(router_after.queries_routed, router_before.queries_routed)),
         "ratio"},
        {"api.self_us", t.api_self_us, "us"},
        {"api.delta_merge_us", t.delta_us, "us"},
        {"api.delta_rows_per_read", t.delta_rows, "count"},
        {"core.project_us", t.project_us, "us"},
        {"core.refine_us", t.refine_us, "us"},
        {"core.cells_per_query", t.cells, "count"},
        {"core.learn_s", learn_s, "s"},
        {"core.index_bytes_per_row", index_bpr, "B"},
        {"query.scan_us", t.scan_us, "us"},
        {"query.ns_per_scanned_point", ratio(t.scan_us * 1e3, t.points_scanned),
         "ns"},
        {"query.scan_overhead", ratio(t.points_scanned, t.points_matched), "ratio"},
        {"query.points_scanned_per_query", t.points_scanned, "count"},
        {"query.blocks_skipped_per_query", t.blocks_skipped, "count"},
        {"query.simd_blocks_per_query", t.simd_blocks, "count"},
        {"storage.table_bytes_per_row", table_bpr, "B"},
        {"persist.insert_us", Mean(insert_us), "us"},
        {"persist.wal_bytes_per_write", ratio(wal_bytes, wal_writes), "B"},
        {"persist.compaction_pause_ms_mean", Mean(pause_ms), "ms"},
        {"persist.compaction_pause_ms_max",
         pause_ms.empty() ? 0 : *std::max_element(pause_ms.begin(), pause_ms.end()),
         "ms"},
        {"persist.compactions", static_cast<double>(compactions), "count"},
        {"persist.snapshot_ms", snapshot_ms, "ms"},
        {"wall.setup_s", Median(setup_wall_s), "s"},
        {"wall.read_p50_ms", read_p50, "ms"},
        {"wall.read_p99_ms", read_p99, "ms"},
        {"wall.max_qps", max_qps, "queries/s"},
        {"wall.write_p50_ms", MedianOverSegments(write_segments, 50), "ms"},
        {"wall.write_p99_ms", MedianOverSegments(write_segments, 99), "ms"},
        {"harness.send_lag_p99_ms", NearestRank(send_lag_ms, 99), "ms"},
        {"harness.error_rate",
         ratio(static_cast<double>(failed), static_cast<double>(attempted)),
         "fraction"},
        {"trace.unattributed_frac", t.unattributed, "fraction"},
    };
  }
  std::printf("failures: %llu of %llu requests; %llu oracle mismatches\n",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(mismatches));

  load->reset();
  ep.reset();
  const bool correct = mismatches == 0;
  std::printf("%s\n", ResultJson(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace flood

int main(int argc, char** argv) {
  flood::perfbench::Args args;
  if (!flood::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<1-60> --trace <0|1> [--workdir <dir>]\n");
    return 2;
  }
  // Every file of the run (socket, WAL, snapshots) lives in a private
  // directory under the working directory, removed at exit; relative
  // names keep the socket path short.
  namespace fs = std::filesystem;
  const fs::path home = fs::current_path();
  const fs::path dir =
      fs::absolute(args.workdir) / ("run-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  fs::current_path(dir);
  const int rc = flood::perfbench::Run(args);
  fs::current_path(home);
  std::error_code ec;
  fs::remove_all(dir, ec);
  return rc;
}
