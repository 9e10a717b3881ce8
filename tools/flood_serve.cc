// flood_serve: stand-alone serving binary — a flood::serve::Server in
// front of one flood::Database, speaking the binary wire protocol
// (src/serve/README.md) over a Unix-domain socket and/or TCP.
//
// The database is opened either from a PR 5 snapshot (--snapshot PATH,
// the production path: fast learned-layout restore + WAL replay) or over
// a synthetic uniform table (--rows/--dims, for smoke tests and demos).
//
// SIGTERM/SIGINT trigger a clean drain: stop accepting, shed new request
// frames with kShuttingDown, finish every in-flight batch, flush every
// response, exit 0. Server::Shutdown() is async-signal-safe (one write
// to an eventfd), so the handler below is legal.
//
//   $ flood_serve --uds /tmp/flood.sock --rows 200000 --dims 4
//   $ flood_serve --tcp 0 --snapshot /var/lib/flood/db.snap

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "api/database.h"
#include "data/datasets.h"
#include "serve/metrics_summary.h"
#include "serve/server.h"

namespace {

flood::serve::Server* g_server = nullptr;

void HandleSignal(int /*signo*/) {
  if (g_server != nullptr) g_server->Shutdown();  // Async-signal-safe.
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [listener flags] [data flags] [tuning flags]\n"
      "       %s --check ADDRESS\n"
      "\n"
      "Single-node serving binary for the flood wire protocol: one epoll\n"
      "event loop in front of one flood::Database. For a sharded tier\n"
      "over several of these, see flood_router (same protocol).\n"
      "\n"
      "Listener flags (at least one required):\n"
      "  --uds PATH            listen on a Unix-domain socket\n"
      "  --tcp PORT            listen on TCP (0 = pick a free port; the\n"
      "                        resolved port is printed on stdout)\n"
      "  --host IPV4           TCP bind address (default 127.0.0.1)\n"
      "  --metrics-addr H:P    Prometheus scrape endpoint (GET /metrics,\n"
      "                        text exposition v0.0.4; port 0 = pick a\n"
      "                        free port, printed on stdout). Off by\n"
      "                        default. See docs/metrics.md.\n"
      "\n"
      "Data flags (pick one source):\n"
      "  --snapshot PATH       open a PR 5 snapshot: fast learned-layout\n"
      "                        restore + WAL replay (production path)\n"
      "  --rows N --dims D     synthetic uniform table (defaults\n"
      "                        200000 x 4, for smoke tests and demos)\n"
      "  --index NAME          index registry key (default flood;\n"
      "                        kdtree, rtree, grid_file, zorder, ...)\n"
      "\n"
      "Tuning flags:\n"
      "  --threads N           RunBatch worker threads (default:\n"
      "                        hardware concurrency)\n"
      "  --max-inflight N      admission control: max in-flight batch\n"
      "                        groups before shedding kOverloaded\n"
      "                        (default 64)\n"
      "  --idle-timeout-ms MS  close idle connections (default 60000)\n"
      "\n"
      "--check probes a running server's kHealth endpoint (bounded\n"
      "deadlines, never hangs on a dead address) and prints a one-screen\n"
      "metrics summary from its kMetrics snapshot; exit 0 iff ready,\n"
      "1 when reachable but draining/poisoned, 2 when unreachable.\n"
      "SIGTERM/SIGINT drain cleanly: in-flight work finishes, new\n"
      "requests are shed with kShuttingDown, then exit 0.\n",
      argv0, argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string uds_path;
  bool listen_tcp = false;
  std::string host = "127.0.0.1";
  long tcp_port = 0;
  std::string snapshot;
  std::string index_name = "flood";
  long rows = 200'000;
  long dims = 4;
  long threads = 0;  // 0 = hardware concurrency.
  long max_inflight = 64;
  long idle_timeout_ms = 60'000;
  std::string metrics_addr;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--check") {
      return flood::serve::CheckHealth(next());
    } else if (arg == "--uds") {
      uds_path = next();
    } else if (arg == "--tcp") {
      listen_tcp = true;
      tcp_port = std::atol(next());
    } else if (arg == "--host") {
      host = next();
    } else if (arg == "--metrics-addr") {
      metrics_addr = next();
    } else if (arg == "--snapshot") {
      snapshot = next();
    } else if (arg == "--index") {
      index_name = next();
    } else if (arg == "--rows") {
      rows = std::atol(next());
    } else if (arg == "--dims") {
      dims = std::atol(next());
    } else if (arg == "--threads") {
      threads = std::atol(next());
    } else if (arg == "--max-inflight") {
      max_inflight = std::atol(next());
    } else if (arg == "--idle-timeout-ms") {
      idle_timeout_ms = std::atol(next());
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }
  if (uds_path.empty() && !listen_tcp) {
    Usage(argv[0]);
    return 2;
  }
  if (tcp_port < 0 || tcp_port > 65535) {
    std::fprintf(stderr, "bad --tcp port %ld\n", tcp_port);
    return 2;
  }

  flood::DatabaseOptions options;
  options.index_name = index_name;
  if (threads > 0) {
    options.num_threads = static_cast<size_t>(threads);
  } else {
    options.num_threads = flood::ThreadPool::DefaultConcurrency();
  }

  flood::StatusOr<flood::Database> db = [&]() {
    if (!snapshot.empty()) {
      std::fprintf(stderr, "opening snapshot %s ...\n", snapshot.c_str());
      return flood::Database::Open(snapshot, std::move(options));
    }
    std::fprintf(stderr, "building synthetic table: %ld rows x %ld dims\n",
                 rows, dims);
    const flood::BenchDataset ds = flood::MakeUniformDataset(
        static_cast<size_t>(rows), static_cast<size_t>(dims), 42);
    options.training_workload = flood::MakeWorkload(
        ds, flood::WorkloadKind::kOlapSkewed, 64, 43);
    return flood::Database::Open(ds.table, std::move(options));
  }();
  if (!db.ok()) {
    std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
    return 1;
  }

  flood::serve::ServerOptions sopts;
  sopts.uds_path = uds_path;
  sopts.listen_tcp = listen_tcp;
  sopts.tcp_host = host;
  sopts.tcp_port = static_cast<uint16_t>(tcp_port);
  sopts.max_inflight_batches = static_cast<size_t>(max_inflight);
  sopts.idle_timeout_ms = idle_timeout_ms;
  sopts.metrics_addr = metrics_addr;

  flood::StatusOr<std::unique_ptr<flood::serve::Server>> server =
      flood::serve::Server::Create(&*db, std::move(sopts));
  if (!server.ok()) {
    std::fprintf(stderr, "serve: %s\n", server.status().ToString().c_str());
    return 1;
  }
  g_server = server->get();

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  // Readiness lines on stdout (flushed) so scripts can wait for them.
  if (!uds_path.empty()) {
    std::printf("listening uds %s\n", uds_path.c_str());
  }
  if (listen_tcp) {
    std::printf("listening tcp %s:%u\n", host.c_str(),
                (*server)->tcp_port());
  }
  if (!metrics_addr.empty()) {
    std::printf("metrics http port %u\n", (*server)->metrics_port());
  }
  std::printf("serving %zu rows via '%s' on %zu threads\n", db->num_rows(),
              index_name.c_str(), db->num_threads());
  std::fflush(stdout);

  // Returns OK after a SIGTERM/SIGINT-initiated drain; a typed error if
  // the event loop itself failed (e.g. epoll_wait).
  const flood::Status ran = (*server)->Run();
  if (!ran.ok()) {
    std::fprintf(stderr, "serve loop: %s\n", ran.ToString().c_str());
    g_server = nullptr;
    return 1;
  }

  const flood::serve::ServerCounters c = (*server)->counters();
  std::printf(
      "drained: %llu conns, %llu frames, %llu batches, %llu queries, "
      "%llu shed\n",
      static_cast<unsigned long long>(c.connections_accepted),
      static_cast<unsigned long long>(c.frames_decoded),
      static_cast<unsigned long long>(c.batches_submitted),
      static_cast<unsigned long long>(c.queries_executed),
      static_cast<unsigned long long>(c.requests_shed));
  g_server = nullptr;
  return 0;
}
