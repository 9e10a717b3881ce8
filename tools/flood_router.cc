// flood_router: sharded scatter-gather serving binary — a
// flood::serve::Server in front of a flood::serve::Router, speaking the
// SAME binary wire protocol as flood_serve (clients cannot tell a router
// from a single server; see "Sharded serving" in src/serve/README.md).
//
// Two deployment shapes:
//
//   In-process shards (demo / single-box): --shards N partitions a
//   synthetic table by sort-dim quantiles into N independent Database
//   instances (each with its own learned layout) and routes across them.
//
//     $ flood_router --uds /tmp/router.sock --shards 4 --rows 400000
//
//   Remote shards (multi-process): one --backend ADDRESS per shard (in
//   shard order) plus --bounds with the N-1 range boundaries; each
//   backend is an independent flood_serve process.
//
//     $ flood_serve --uds /tmp/s0.sock --rows 100000 &
//     $ flood_serve --uds /tmp/s1.sock --rows 100000 &
//     $ flood_router --uds /tmp/router.sock \
//         --backend unix:/tmp/s0.sock --backend unix:/tmp/s1.sock \
//         --bounds 500000
//
// SIGTERM/SIGINT drain exactly like flood_serve: stop accepting, shed new
// requests with kShuttingDown, finish in-flight scatters, flush, exit 0.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "api/sharded_database.h"
#include "data/datasets.h"
#include "serve/client.h"
#include "serve/metrics_summary.h"
#include "serve/router.h"
#include "serve/server.h"

namespace {

flood::serve::Server* g_server = nullptr;

void HandleSignal(int /*signo*/) {
  if (g_server != nullptr) g_server->Shutdown();  // Async-signal-safe.
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [listener flags] [shard flags] [tuning flags]\n"
      "       %s --check ADDRESS\n"
      "\n"
      "Sharded scatter-gather front end for the flood wire protocol: the\n"
      "same protocol as flood_serve, served by a router that partitions\n"
      "the key space of one dimension across N shard backends and only\n"
      "queries the shards a filter can match.\n"
      "\n"
      "Listener flags (at least one required):\n"
      "  --uds PATH            listen on a Unix-domain socket\n"
      "  --tcp PORT            listen on TCP (0 = pick a free port; the\n"
      "                        resolved port is printed on stdout)\n"
      "  --host IPV4           TCP bind address (default 127.0.0.1)\n"
      "  --metrics-addr H:P    Prometheus scrape endpoint (GET /metrics,\n"
      "                        port 0 = pick a free port). Off by\n"
      "                        default. See docs/metrics.md.\n"
      "\n"
      "Shard flags — in-process mode (synthetic data, single box):\n"
      "  --shards N            partition into N local Database shards\n"
      "                        (default 2)\n"
      "  --rows N --dims D     synthetic uniform table size (defaults\n"
      "                        200000 x 4)\n"
      "  --index NAME          per-shard index (default flood)\n"
      "  --sort-dim D          dimension to partition on (default 0)\n"
      "\n"
      "Shard flags — remote mode (one flood_serve process per shard):\n"
      "  --backend ADDRESS     one per shard, in shard order; ADDRESS is\n"
      "                        unix:<path> or <ipv4>:<port>\n"
      "  --bounds V1,V2,...    the N-1 range boundaries: shard i+1 owns\n"
      "                        values >= Vi (required with >1 backend)\n"
      "  --sort-dim D          dimension the bounds partition (default 0)\n"
      "  --backend-timeout-ms MS   per-operation client deadlines toward\n"
      "                        the backends (default 10000)\n"
      "\n"
      "Tuning flags:\n"
      "  --threads N           per-shard RunBatch threads, in-process mode\n"
      "                        (default: hardware concurrency)\n"
      "  --max-inflight N      admission control: max in-flight batch\n"
      "                        groups before shedding kOverloaded\n"
      "                        (default 64)\n"
      "  --idle-timeout-ms MS  close idle connections (default 60000)\n"
      "\n"
      "--check probes a running router (or flood_serve — same protocol)\n"
      "via kHealth with bounded deadlines and prints a one-screen metrics\n"
      "summary from its kMetrics snapshot; exit 0 iff ready. A router is\n"
      "ready iff every shard backend is ready.\n",
      argv0, argv0);
}

bool ParseBounds(const std::string& spec, std::vector<flood::Value>* out) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string token = spec.substr(pos, comma - pos);
    if (token.empty()) return false;
    char* end = nullptr;
    const long long v = std::strtoll(token.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return false;
    out->push_back(static_cast<flood::Value>(v));
    pos = comma + 1;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::string uds_path;
  bool listen_tcp = false;
  std::string host = "127.0.0.1";
  long tcp_port = 0;
  long shards = 2;
  long rows = 200'000;
  long dims = 4;
  std::string index_name = "flood";
  long sort_dim = 0;
  std::vector<std::string> backends;
  std::vector<flood::Value> bounds;
  long backend_timeout_ms = 10'000;
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
    } else if (arg == "--shards") {
      shards = std::atol(next());
    } else if (arg == "--rows") {
      rows = std::atol(next());
    } else if (arg == "--dims") {
      dims = std::atol(next());
    } else if (arg == "--index") {
      index_name = next();
    } else if (arg == "--sort-dim") {
      sort_dim = std::atol(next());
    } else if (arg == "--backend") {
      backends.push_back(next());
    } else if (arg == "--bounds") {
      if (!ParseBounds(next(), &bounds)) {
        std::fprintf(stderr, "bad --bounds (want V1,V2,... integers)\n");
        return 2;
      }
    } else if (arg == "--backend-timeout-ms") {
      backend_timeout_ms = std::atol(next());
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

  // The router (and, in-process mode, the sharded database) must outlive
  // the server; both live to the end of main.
  std::unique_ptr<flood::ShardedDatabase> sharded;
  std::unique_ptr<flood::serve::Router> router;

  if (!backends.empty()) {
    // Remote mode: one wire backend per --backend, ranges from --bounds.
    if (bounds.size() + 1 != backends.size()) {
      std::fprintf(stderr,
                   "%zu backends need exactly %zu --bounds values (got "
                   "%zu)\n",
                   backends.size(), backends.size() - 1, bounds.size());
      return 2;
    }
    auto map = flood::ShardMap::FromBounds(static_cast<size_t>(sort_dim),
                                           std::move(bounds));
    if (!map.ok()) {
      std::fprintf(stderr, "bounds: %s\n", map.status().ToString().c_str());
      return 2;
    }
    flood::serve::ClientOptions copts;
    copts.connect_timeout_ms = backend_timeout_ms;
    copts.send_timeout_ms = backend_timeout_ms;
    copts.recv_timeout_ms = backend_timeout_ms;
    std::vector<std::unique_ptr<flood::serve::BatchEngine>> engines;
    engines.reserve(backends.size());
    for (const std::string& address : backends) {
      engines.push_back(flood::serve::MakeRemoteBackend(address, copts));
    }
    router = std::make_unique<flood::serve::Router>(std::move(*map),
                                                    std::move(engines));
    std::fprintf(stderr, "routing to %zu remote shards: %s\n",
                 backends.size(), router->shard_map().ToString().c_str());
  } else {
    // In-process mode: partition a synthetic table into local shards.
    if (shards < 1) {
      std::fprintf(stderr, "bad --shards %ld\n", shards);
      return 2;
    }
    std::fprintf(stderr,
                 "building synthetic table: %ld rows x %ld dims, %ld "
                 "shards on dim %ld\n",
                 rows, dims, shards, sort_dim);
    const flood::BenchDataset ds = flood::MakeUniformDataset(
        static_cast<size_t>(rows), static_cast<size_t>(dims), 42);
    flood::ShardedDatabaseOptions opts;
    opts.num_shards = static_cast<size_t>(shards);
    opts.sort_dim = static_cast<size_t>(sort_dim);
    opts.shard_options.index_name = index_name;
    opts.shard_options.training_workload =
        flood::MakeWorkload(ds, flood::WorkloadKind::kOlapSkewed, 64, 43);
    if (threads > 0) {
      opts.shard_options.num_threads = static_cast<size_t>(threads);
    } else {
      opts.shard_options.num_threads =
          flood::ThreadPool::DefaultConcurrency();
    }
    auto db = flood::ShardedDatabase::Open(ds.table, std::move(opts));
    if (!db.ok()) {
      std::fprintf(stderr, "open: %s\n", db.status().ToString().c_str());
      return 1;
    }
    sharded = std::make_unique<flood::ShardedDatabase>(std::move(*db));
    router = flood::serve::Router::Over(sharded.get());
    std::fprintf(stderr, "sharded %zu rows: %s\n", sharded->num_rows(),
                 sharded->shard_map().ToString().c_str());
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
      flood::serve::Server::Create(router.get(), std::move(sopts));
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
    std::printf("listening tcp %s:%u\n", host.c_str(), (*server)->tcp_port());
  }
  if (!metrics_addr.empty()) {
    std::printf("metrics http port %u\n", (*server)->metrics_port());
  }
  std::printf("routing across %zu shards\n", router->num_shards());
  std::fflush(stdout);

  const flood::Status ran = (*server)->Run();
  if (!ran.ok()) {
    std::fprintf(stderr, "serve loop: %s\n", ran.ToString().c_str());
    g_server = nullptr;
    return 1;
  }

  const flood::serve::RouterCounters rc = router->counters();
  const flood::serve::ServerCounters sc = (*server)->counters();
  std::printf(
      "drained: %llu conns, %llu batches routed, %llu subqueries sent, "
      "%llu pruned, %llu shard errors, %llu shed\n",
      static_cast<unsigned long long>(sc.connections_accepted),
      static_cast<unsigned long long>(rc.batches_routed),
      static_cast<unsigned long long>(rc.subqueries_sent),
      static_cast<unsigned long long>(rc.subqueries_pruned),
      static_cast<unsigned long long>(rc.shard_errors),
      static_cast<unsigned long long>(sc.requests_shed));
  g_server = nullptr;
  return 0;
}
