// flood_serve: the serving binary — a flood::serve::Server speaking the
// binary wire protocol (src/serve/README.md) over a Unix-domain socket
// and/or TCP, in front of one of three engines:
//
//   One database (no shard flag): a snapshot (--snapshot PATH, the
//   production path: fast learned-layout restore + WAL replay) or a
//   synthetic uniform table (--rows/--dims, for smoke tests and demos).
//
//     $ flood_serve --uds /tmp/flood.sock --rows 200000 --dims 4
//     $ flood_serve --tcp 0 --snapshot /var/lib/flood/db.snap
//
//   In-process shards: --shards N partitions the synthetic table by
//   sort-dim quantiles into N independent Database instances (each with
//   its own learned layout) behind a serve::Router.
//
//     $ flood_serve --uds /tmp/router.sock --shards 4 --rows 400000
//
//   Remote shards: one --backend ADDRESS per shard (in shard order) plus
//   --bounds with the N-1 range boundaries; each backend is another
//   flood_serve process (the synthetic table spans 0-1e9 on the sort
//   dimension). Clients cannot tell a router from one server.
//
//     $ flood_serve --uds /tmp/s0.sock --rows 100000 &
//     $ flood_serve --uds /tmp/s1.sock --rows 100000 &
//     $ flood_serve --uds /tmp/router.sock --bounds 500000000
//         --backend unix:/tmp/s0.sock --backend unix:/tmp/s1.sock
//
// SIGTERM/SIGINT trigger a clean drain: stop accepting, shed new request
// frames with kShuttingDown, finish every in-flight batch, flush every
// response, exit 0. Server::Shutdown() is async-signal-safe (one write
// to an eventfd), so the handler below is legal.

#include <signal.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/database.h"
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
      "usage: %s [listener flags] [data flags] [shard flags] [tuning flags]\n"
      "       %s --check ADDRESS\n"
      "\n"
      "Serving binary for the flood wire protocol: one epoll event loop in\n"
      "front of one flood::Database, or of a router that partitions the\n"
      "key space of one dimension across N shards and only queries the\n"
      "shards a filter can match (same protocol either way).\n"
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
      "  --snapshot PATH       open a Database::Save snapshot: fast\n"
      "                        learned-layout restore + WAL replay\n"
      "                        (production path; one database, no\n"
      "                        shard flags)\n"
      "  --rows N --dims D     synthetic uniform table (defaults\n"
      "                        200000 x 4, for smoke tests and demos)\n"
      "  --index NAME          index registry key, per shard when sharded\n"
      "                        (default flood; kdtree, rtree, grid_file,\n"
      "                        zorder, ...)\n"
      "\n"
      "Shard flags — in-process (the synthetic table, one box):\n"
      "  --shards N            partition into N local Database shards\n"
      "                        behind a router (default: no router)\n"
      "  --sort-dim D          dimension to partition on (default 0)\n"
      "\n"
      "Shard flags — remote (one flood_serve process per shard):\n"
      "  --backend ADDRESS     one per shard, in shard order; ADDRESS is\n"
      "                        unix:<path> or <ipv4>:<port>\n"
      "  --bounds V1,V2,...    the N-1 range boundaries: shard i+1 owns\n"
      "                        values >= Vi (required with >1 backend)\n"
      "  --sort-dim D          dimension the bounds partition (default 0)\n"
      "  --backend-timeout-ms MS   per-operation client deadlines toward\n"
      "                        the backends (default 10000)\n"
      "\n"
      "Tuning flags:\n"
      "  --threads N           RunBatch worker threads, per shard when\n"
      "                        sharded (default: hardware concurrency)\n"
      "  --max-inflight N      admission control: max in-flight batch\n"
      "                        groups before shedding kOverloaded\n"
      "                        (default 64)\n"
      "  --idle-timeout-ms MS  close idle connections (default 60000)\n"
      "\n"
      "Each engine reads only its own flags; any other data, shard or\n"
      "--threads flag exits 2. --backend reads --bounds, --sort-dim and\n"
      "--backend-timeout-ms; --shards reads --rows, --dims, --index,\n"
      "--sort-dim and --threads; --snapshot reads --threads; one\n"
      "synthetic database reads --rows, --dims, --index and --threads.\n"
      "\n"
      "--check probes a running server's kHealth endpoint (bounded\n"
      "deadlines, never hangs on a dead address) and prints a one-screen\n"
      "metrics summary from its kMetrics snapshot; exit 0 iff ready,\n"
      "1 when reachable but draining/poisoned, 2 when unreachable. A\n"
      "router is ready iff every shard is ready.\n"
      "SIGTERM/SIGINT drain cleanly: in-flight work finishes, new\n"
      "requests are shed with kShuttingDown, then exit 0.\n",
      argv0, argv0);
}

/// Parses `text` as a base-10 integer in [lo, hi]. Anything else (no
/// digits, trailing bytes, out of range) exits 2 naming `flag`.
long long ParseInt(const std::string& flag, const char* text, long long lo,
                   long long hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || v < lo || v > hi) {
    std::fprintf(stderr,
                 "bad %s value '%s' (want an integer in [%lld, %lld])\n",
                 flag.c_str(), text, lo, hi);
    std::exit(2);
  }
  return v;
}

/// The opened database, or exit 1 with the open error.
template <typename T>
std::unique_ptr<T> OpenedOrExit(flood::StatusOr<T> opened) {
  if (!opened.ok()) {
    std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    std::exit(1);
  }
  return std::make_unique<T>(std::move(*opened));
}

}  // namespace

int main(int argc, char** argv) {
  std::string uds_path;
  bool listen_tcp = false;
  std::string host = "127.0.0.1";
  long long tcp_port = 0;
  std::string snapshot;
  std::string index_name = "flood";
  long long rows = 200'000;
  long long dims = 4;
  long long shards = 0;  // 0 = one Database, no router.
  long long sort_dim = 0;
  std::vector<std::string> backends;
  std::vector<flood::Value> bounds;
  long long backend_timeout_ms = 10'000;
  long long threads = 0;  // 0 = hardware concurrency.
  long long max_inflight = 64;
  long long idle_timeout_ms = 60'000;
  std::string metrics_addr;

  std::set<std::string> given;  // Every flag on the command line.

  constexpr long long kMaxMs = INT32_MAX;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    given.insert(arg);
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_int = [&](long long lo, long long hi) {
      return ParseInt(arg, next(), lo, hi);
    };
    if (arg == "--check") {
      return flood::serve::CheckHealth(next());
    } else if (arg == "--uds") {
      uds_path = next();
    } else if (arg == "--tcp") {
      listen_tcp = true;
      tcp_port = next_int(0, 65535);
    } else if (arg == "--host") {
      host = next();
    } else if (arg == "--metrics-addr") {
      metrics_addr = next();
    } else if (arg == "--snapshot") {
      snapshot = next();
    } else if (arg == "--index") {
      index_name = next();
    } else if (arg == "--rows") {
      rows = next_int(1, INT64_MAX);
    } else if (arg == "--dims") {
      dims = next_int(1, 1024);
    } else if (arg == "--shards") {
      shards = next_int(1, 256);
    } else if (arg == "--sort-dim") {
      sort_dim = next_int(0, 1023);
    } else if (arg == "--backend") {
      backends.push_back(next());
    } else if (arg == "--bounds") {
      const std::string spec = next();
      for (size_t pos = 0; pos <= spec.size();) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos) comma = spec.size();
        const std::string token = spec.substr(pos, comma - pos);
        bounds.push_back(ParseInt(arg, token.c_str(), INT64_MIN, INT64_MAX));
        pos = comma + 1;
      }
    } else if (arg == "--backend-timeout-ms") {
      backend_timeout_ms = next_int(1, kMaxMs);
    } else if (arg == "--threads") {
      threads = next_int(0, 1024);
    } else if (arg == "--max-inflight") {
      max_inflight = next_int(1, 1'000'000);
    } else if (arg == "--idle-timeout-ms") {
      idle_timeout_ms = next_int(0, kMaxMs);
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
  // Each engine reads only its own data and shard flags; one that the
  // chosen engine never reads is a usage error, not silently dropped.
  struct Engine {
    std::string name;             // The flag that picks it, if any.
    std::set<std::string> reads;  // The other engine flags it reads.
  };
  const Engine engines[] = {
      {"--backend", {"--bounds", "--sort-dim", "--backend-timeout-ms"}},
      {"--shards", {"--rows", "--dims", "--index", "--sort-dim", "--threads"}},
      {"--snapshot", {"--threads"}},
      {"one synthetic database", {"--rows", "--dims", "--index", "--threads"}},
  };
  const Engine* engine = &engines[3];
  if (!backends.empty()) {
    engine = &engines[0];
  } else if (shards > 0) {
    engine = &engines[1];
  } else if (!snapshot.empty()) {
    engine = &engines[2];
  }
  for (const Engine& other : engines) {
    std::set<std::string> flags = other.reads;
    flags.insert(other.name);
    for (const std::string& flag : flags) {
      if (given.count(flag) > 0 && flag != engine->name &&
          engine->reads.count(flag) == 0) {
        std::fprintf(stderr, "%s is not read when serving with %s\n",
                     flag.c_str(), engine->name.c_str());
        return 2;
      }
    }
  }

  flood::DatabaseOptions options;
  options.index_name = index_name;
  options.num_threads = threads > 0 ? static_cast<size_t>(threads)
                                    : flood::ThreadPool::DefaultConcurrency();

  // The engine — a database, or a router with (in process) its sharded
  // database — must outlive the server; each lives to the end of main.
  std::unique_ptr<flood::Database> db;
  std::unique_ptr<flood::ShardedDatabase> sharded;
  std::unique_ptr<flood::serve::Router> router;

  if (!backends.empty()) {
    // Remote shards: one wire backend per --backend, ranges from --bounds.
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
  } else if (!snapshot.empty()) {
    std::fprintf(stderr, "opening snapshot %s ...\n", snapshot.c_str());
    db = OpenedOrExit(flood::Database::Open(snapshot, std::move(options)));
  } else {
    std::fprintf(stderr, "building synthetic table: %lld rows x %lld dims\n",
                 rows, dims);
    const flood::BenchDataset ds = flood::MakeUniformDataset(
        static_cast<size_t>(rows), static_cast<size_t>(dims), 42);
    options.training_workload = flood::MakeWorkload(
        ds, flood::WorkloadKind::kOlapSkewed, 64, 43);
    if (shards > 0) {
      flood::ShardedDatabaseOptions shard_opts;
      shard_opts.num_shards = static_cast<size_t>(shards);
      shard_opts.sort_dim = static_cast<size_t>(sort_dim);
      shard_opts.shard_options = std::move(options);
      sharded = OpenedOrExit(
          flood::ShardedDatabase::Open(ds.table, std::move(shard_opts)));
      router = flood::serve::Router::Over(sharded.get());
      std::fprintf(stderr, "sharded %zu rows: %s\n", sharded->num_rows(),
                   sharded->shard_map().ToString().c_str());
    } else {
      db = OpenedOrExit(flood::Database::Open(ds.table, std::move(options)));
    }
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
      router != nullptr
          ? flood::serve::Server::Create(router.get(), std::move(sopts))
          : flood::serve::Server::Create(db.get(), std::move(sopts));
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
  if (router != nullptr) {
    std::printf("routing across %zu shards\n", router->num_shards());
  } else {
    std::printf("serving %zu rows via '%s' on %zu threads\n", db->num_rows(),
                db->index_name().c_str(), db->num_threads());
  }
  std::fflush(stdout);

  // Returns OK after a SIGTERM/SIGINT-initiated drain; a typed error if
  // the event loop itself failed (e.g. epoll_wait).
  const flood::Status ran = (*server)->Run();
  g_server = nullptr;
  if (!ran.ok()) {
    std::fprintf(stderr, "serve loop: %s\n", ran.ToString().c_str());
    return 1;
  }

  using ull = unsigned long long;
  const flood::serve::ServerCounters sc = (*server)->counters();
  if (router != nullptr) {
    const flood::serve::RouterCounters rc = router->counters();
    std::printf(
        "drained: %llu conns, %llu batches routed, %llu subqueries sent, "
        "%llu pruned, %llu shard errors, %llu shed\n",
        static_cast<ull>(sc.connections_accepted),
        static_cast<ull>(rc.batches_routed),
        static_cast<ull>(rc.subqueries_sent),
        static_cast<ull>(rc.subqueries_pruned),
        static_cast<ull>(rc.shard_errors), static_cast<ull>(sc.requests_shed));
  } else {
    std::printf(
        "drained: %llu conns, %llu frames, %llu batches, %llu queries, "
        "%llu shed\n",
        static_cast<ull>(sc.connections_accepted),
        static_cast<ull>(sc.frames_decoded),
        static_cast<ull>(sc.batches_submitted),
        static_cast<ull>(sc.queries_executed),
        static_cast<ull>(sc.requests_shed));
  }
  return 0;
}
