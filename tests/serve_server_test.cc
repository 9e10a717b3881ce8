// Serving-tier integration tests over loopback Unix-domain sockets (plus
// one TCP case): wire results must be bit-identical to in-process
// Database::RunBatch for every registered index — with staged writes and
// tombstones in flight — and the server must shed overload with typed
// kOverloaded while Ping stays responsive, keep honest observability
// counters, survive garbage bytes, and drain cleanly on Shutdown.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "api/index_registry.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tests/test_util.h"

namespace flood {
namespace serve {
namespace {

using flood::testing::AbsentKeyQueries;
using flood::testing::DataShape;
using flood::testing::MakeTable;
using flood::testing::PointQueries;
using flood::testing::RandomQuery;
using flood::testing::RowsOf;

std::string UniquePath(const std::string& tag) {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "flood_serve_" + std::to_string(::getpid()) +
         "_" + tag + "_" + std::to_string(counter.fetch_add(1)) + ".sock";
}

/// RAII: unlinks the UDS path (the server also unlinks on clean drain).
struct SocketPath {
  explicit SocketPath(const std::string& tag) : path(UniquePath(tag)) {}
  ~SocketPath() { ::unlink(path.c_str()); }
  std::string path;
};

StatusOr<Database> OpenDb(const Table& table, const std::string& index,
                          size_t threads) {
  DatabaseOptions options;
  options.index_name = index;
  options.num_threads = threads;
  if (index == "flood") {
    Workload train;
    for (uint64_t s = 0; s < 20; ++s) {
      train.Add(RandomQuery(table, 5000 + s));
    }
    options.training_workload = std::move(train);
  }
  return Database::Open(table, std::move(options));
}

std::vector<Query> MakeQueries(const Table& table, size_t n,
                               uint64_t seed) {
  std::vector<Query> queries;
  for (size_t i = 0; i < n; ++i) {
    Query q = RandomQuery(table, seed + i);
    if (i % 3 == 0) q.set_agg({AggSpec::Kind::kSum, i % table.num_dims()});
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Raw blocking UDS socket for tests that need byte-level control
/// (single-burst pipelining, garbage injection).
struct RawConn {
  int fd = -1;
  FrameAssembler assembler;

  explicit RawConn(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~RawConn() {
    if (fd >= 0) ::close(fd);
  }

  bool SendAll(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Blocks for the next frame; false on EOF/corruption.
  bool NextFrame(Frame* frame) {
    for (;;) {
      switch (assembler.Next(frame)) {
        case FrameAssembler::Result::kFrame:
          return true;
        case FrameAssembler::Result::kBad:
          return false;
        case FrameAssembler::Result::kNeedMore:
          break;
      }
      char buf[4096];
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return false;
      assembler.Feed(buf, static_cast<size_t>(n));
    }
  }

  /// Blocks until the server closes this connection.
  bool WaitForClose() {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) return true;
      if (n < 0) return errno == ECONNRESET;
    }
  }
};

// ---------------------------------------------------------------------------
// Acceptance: loopback results are bit-identical to in-process RunBatch for
// every registered index, with staged writes AND tombstones in flight.
// ---------------------------------------------------------------------------

TEST(ServeServerTest, LoopbackBitIdenticalToInProcessForEveryIndex) {
  const Table table = MakeTable(DataShape::kClustered, 4'000, 3, 71);
  const std::vector<std::vector<Value>> rows = RowsOf(table);
  const std::vector<Query> queries = MakeQueries(table, 40, 900);

  size_t tested = 0;
  for (const std::string& index : IndexRegistry::Global().Names()) {
    StatusOr<Database> db = OpenDb(table, index, 2);
    if (!db.ok()) continue;  // e.g. grid-file budget: N/A on this data.

    // Stage writes the server must serve through the delta: inserts AND
    // tombstones, deliberately NOT compacted.
    for (Value i = 0; i < 30; ++i) {
      ASSERT_TRUE(db->Insert({1'000'000 + i, 1'000'000 - i, i}).ok());
    }
    for (size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(db->Delete(rows[i * 131]).ok());
    }
    ASSERT_GT(db->delta_inserts(), 0u) << index;
    ASSERT_GT(db->delta_tombstones(), 0u) << index;

    ServerOptions sopts;
    SocketPath sock(index);
    sopts.uds_path = sock.path;
    StatusOr<std::unique_ptr<Server>> server =
        Server::Create(&*db, std::move(sopts));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    (*server)->Start();

    StatusOr<Client> client = Client::Connect("unix:" + sock.path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();

    const BatchResult local = db->RunBatch(queries);
    ASSERT_TRUE(local.status.ok());
    StatusOr<BatchResultResponse> wire = client->RunBatch(queries);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    ASSERT_EQ(wire->code, WireCode::kOk) << wire->message;
    ASSERT_EQ(wire->results.size(), local.results.size()) << index;
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(wire->results[i].count, local.results[i].count)
          << index << " query " << i;
      EXPECT_EQ(wire->results[i].sum, local.results[i].sum)
          << index << " query " << i;
      EXPECT_EQ(wire->results[i].kind == 1,
                local.results[i].kind == QueryResult::Kind::kSum)
          << index << " query " << i;
      EXPECT_EQ(wire->results[i].skipped_empty,
                local.results[i].skipped_empty)
          << index << " query " << i;
    }

    (*server)->Shutdown();
    (*server)->Join();
    ++tested;
  }
  // The registry always has at least the core indexes; a regression that
  // silently skips everything must fail loudly.
  EXPECT_GE(tested, 5u);
}

// ---------------------------------------------------------------------------
// Writes over the wire.
// ---------------------------------------------------------------------------

TEST(ServeServerTest, WireWritesAreVisibleToSubsequentQueries) {
  const Table table = MakeTable(DataShape::kUniform, 3'000, 3, 72);
  StatusOr<Database> db = OpenDb(table, "kdtree", 2);
  ASSERT_TRUE(db.ok());

  ServerOptions sopts;
  SocketPath sock("writes");
  sopts.uds_path = sock.path;
  auto server = Server::Create(&*db, std::move(sopts));
  ASSERT_TRUE(server.ok());
  (*server)->Start();

  auto client = Client::Connect("unix:" + sock.path);
  ASSERT_TRUE(client.ok());

  Query all(3);
  const std::vector<Query> probe = {all};
  auto before = client->RunBatch(probe);
  ASSERT_TRUE(before.ok());
  const uint64_t count0 = before->results[0].count;

  ASSERT_TRUE(client->Insert({1, 2, 3}).ok());
  std::vector<std::vector<Value>> batch_rows = {{4, 5, 6}, {7, 8, 9}};
  ASSERT_TRUE(client->InsertBatch(batch_rows).ok());

  auto after = client->RunBatch(probe);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->results[0].count, count0 + 3);

  StatusOr<uint64_t> deleted = client->Delete({4, 5, 6});
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 1u);
  auto final_count = client->RunBatch(probe);
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count->results[0].count, count0 + 2);

  // The staged writes are visible in-process too — same delta.
  EXPECT_EQ(db->num_rows(), static_cast<size_t>(count0 + 2));

  (*server)->Shutdown();
  (*server)->Join();
}

// ---------------------------------------------------------------------------
// Admission control: typed kOverloaded sheds; Ping stays responsive.
// ---------------------------------------------------------------------------

TEST(ServeServerTest, PerConnectionCapShedsWithTypedOverloadedError) {
  const Table table = MakeTable(DataShape::kUniform, 50'000, 3, 73);
  StatusOr<Database> db = OpenDb(table, "full_scan", 2);
  ASSERT_TRUE(db.ok());

  ServerOptions sopts;
  SocketPath sock("shed");
  sopts.uds_path = sock.path;
  sopts.max_inflight_per_connection = 1;
  auto server = Server::Create(&*db, std::move(sopts));
  ASSERT_TRUE(server.ok());
  (*server)->Start();

  // Two RunBatch frames in ONE send: the server processes them in one read
  // burst, so the second deterministically exceeds the per-connection
  // in-flight cap of 1 and is shed — while the first still executes.
  const std::vector<Query> queries = MakeQueries(table, 8, 1000);
  RunBatchRequest req1;
  req1.request_id = 101;
  req1.queries = queries;
  RunBatchRequest req2;
  req2.request_id = 102;
  req2.queries = queries;
  std::string burst;
  AppendRunBatch(req1, &burst);
  AppendRunBatch(req2, &burst);

  RawConn conn(sock.path);
  ASSERT_GE(conn.fd, 0);
  ASSERT_TRUE(conn.SendAll(burst));

  // While that batch runs, Ping on a second connection stays responsive.
  auto pinger = Client::Connect("unix:" + sock.path);
  ASSERT_TRUE(pinger.ok());
  EXPECT_TRUE(pinger->Ping().ok());

  bool got_ok = false;
  bool got_shed = false;
  for (int i = 0; i < 2; ++i) {
    Frame frame;
    ASSERT_TRUE(conn.NextFrame(&frame));
    if (frame.type == MessageType::kError) {
      StatusOr<ErrorResponse> err = ParseError(frame.payload);
      ASSERT_TRUE(err.ok());
      EXPECT_EQ(err->request_id, 102u);
      EXPECT_EQ(err->code, WireCode::kOverloaded);
      got_shed = true;
    } else {
      ASSERT_EQ(frame.type, MessageType::kBatchResult);
      StatusOr<BatchResultResponse> resp = ParseBatchResult(frame.payload);
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(resp->request_id, 101u);
      EXPECT_EQ(resp->code, WireCode::kOk);
      EXPECT_EQ(resp->results.size(), queries.size());
      got_ok = true;
    }
  }
  EXPECT_TRUE(got_ok);
  EXPECT_TRUE(got_shed);

  // The shed didn't kill the connection: it is still fully usable.
  RunBatchRequest req3;
  req3.request_id = 103;
  req3.queries = {queries[0]};
  std::string again;
  AppendRunBatch(req3, &again);
  ASSERT_TRUE(conn.SendAll(again));
  Frame frame;
  ASSERT_TRUE(conn.NextFrame(&frame));
  EXPECT_EQ(frame.type, MessageType::kBatchResult);

  const ServerCounters counters = (*server)->counters();
  EXPECT_GE(counters.requests_shed, 1u);

  (*server)->Shutdown();
  (*server)->Join();
}

TEST(ServeServerTest, ZeroQueueSlotsShedEverythingYetPingAndStatsWork) {
  // max_inflight_batches = 0: every RunBatch is shed at admission — the
  // degenerate configuration proves the overloaded server stays fully
  // observable (Ping AND Stats answered from the event loop).
  const Table table = MakeTable(DataShape::kUniform, 2'000, 3, 74);
  StatusOr<Database> db = OpenDb(table, "kdtree", 2);
  ASSERT_TRUE(db.ok());

  ServerOptions sopts;
  SocketPath sock("zeroq");
  sopts.uds_path = sock.path;
  sopts.max_inflight_batches = 0;
  auto server = Server::Create(&*db, std::move(sopts));
  ASSERT_TRUE(server.ok());
  (*server)->Start();

  auto client = Client::Connect("unix:" + sock.path);
  ASSERT_TRUE(client.ok());

  const std::vector<Query> queries = MakeQueries(table, 4, 1100);
  for (int i = 0; i < 3; ++i) {
    auto reply = client->RunBatch(queries);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->code, WireCode::kOverloaded);
    EXPECT_TRUE(reply->results.empty());
    EXPECT_TRUE(client->Ping().ok());  // Liveness under total overload.
  }
  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok());
  double shed = -1;
  for (const auto& [key, value] : metrics->entries) {
    if (key == "serve.requests_shed") shed = value;
  }
  EXPECT_EQ(shed, 3.0);

  (*server)->Shutdown();
  (*server)->Join();
}

// ---------------------------------------------------------------------------
// Observability counters (same introspection-map shape as the persistence
// telemetry).
// ---------------------------------------------------------------------------

TEST(ServeServerTest, CountersTrackAScriptedSession) {
  const Table table = MakeTable(DataShape::kUniform, 3'000, 3, 75);
  StatusOr<Database> db = OpenDb(table, "kdtree", 2);
  ASSERT_TRUE(db.ok());

  ServerOptions sopts;
  SocketPath sock("counters");
  sopts.uds_path = sock.path;
  auto server = Server::Create(&*db, std::move(sopts));
  ASSERT_TRUE(server.ok());
  (*server)->Start();

  auto client = Client::Connect("unix:" + sock.path);
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(client->Ping().ok());
  const std::vector<Query> queries = MakeQueries(table, 10, 1200);
  ASSERT_TRUE(client->RunBatch(queries).ok());
  ASSERT_TRUE(client->RunBatch(queries).ok());
  ASSERT_TRUE(client->Insert({1, 2, 3}).ok());

  const ServerCounters c = (*server)->counters();
  EXPECT_EQ(c.connections_accepted, 1u);
  EXPECT_EQ(c.connections_active, 1u);
  // Ping + 2 RunBatch + Insert = 4 decoded frames.
  EXPECT_EQ(c.frames_decoded, 4u);
  EXPECT_EQ(c.batches_submitted, 2u);
  EXPECT_EQ(c.queries_executed, 2 * queries.size());
  EXPECT_EQ(c.writes_applied, 1u);
  EXPECT_EQ(c.requests_shed, 0u);
  EXPECT_EQ(c.bad_frames, 0u);
  EXPECT_GT(c.bytes_in, 0u);
  EXPECT_GT(c.bytes_out, 0u);
  EXPECT_EQ(c.queue_depth, 0u);  // Everything answered.
  EXPECT_GE(c.queue_depth_hwm, 1u);

  // Introspect() flattens the same counters, plus database gauges — one
  // map shape across the whole stack (persistence telemetry, index
  // DebugProperties, serving).
  const auto entries = (*server)->Introspect();
  auto get = [&entries](const std::string& key) -> double {
    for (const auto& [k, v] : entries) {
      if (k == key) return v;
    }
    return -1.0;
  };
  EXPECT_EQ(get("serve.frames_decoded"), 4.0);
  EXPECT_EQ(get("serve.batches_submitted"), 2.0);
  EXPECT_EQ(get("serve.connections_active"), 1.0);
  EXPECT_EQ(get("db.pending_writes"), 1.0);
  EXPECT_EQ(get("db.num_threads"), 2.0);
  EXPECT_GE(get("db.queries_run"), 20.0);
  // Scan-kernel telemetry is present (>= 0; which counter advances
  // depends on the active kernel and zone-map outcomes).
  EXPECT_GE(get("db.blocks_skipped"), 0.0);
  EXPECT_GE(get("db.blocks_exact"), 0.0);
  EXPECT_GE(get("db.simd_blocks"), 0.0);

  // And the wire Metrics response carries the identical map.
  auto wire_metrics = client->Metrics();
  ASSERT_TRUE(wire_metrics.ok());
  auto wire_get = [&wire_metrics](const std::string& key) -> double {
    for (const auto& [k, v] : wire_metrics->entries) {
      if (k == key) return v;
    }
    return -1.0;
  };
  EXPECT_EQ(wire_get("serve.batches_submitted"), 2.0);
  EXPECT_EQ(wire_get("db.pending_writes"), 1.0);

  (*server)->Shutdown();
  (*server)->Join();
}

// The exact, ordered Introspect() key list and its counts after a scripted
// session. These are the names and values the kMetrics response and
// /metrics publish, so a change to how counters are stored or walked must
// leave this test untouched.
TEST(ServeServerTest, IntrospectKeysAndCountsAreGolden) {
  const Table table = MakeTable(DataShape::kUniform, 3'000, 3, 76);
  StatusOr<Database> db = OpenDb(table, "kdtree", 1);
  ASSERT_TRUE(db.ok());

  ServerOptions sopts;
  SocketPath sock("golden");
  sopts.uds_path = sock.path;
  auto server = Server::Create(&*db, std::move(sopts));
  ASSERT_TRUE(server.ok());
  (*server)->Start();
  auto client = Client::Connect("unix:" + sock.path);
  ASSERT_TRUE(client.ok());

  // Ping, 2 RunBatch, Insert, Delete, Health = 6 decoded frames.
  ASSERT_TRUE(client->Ping().ok());
  const std::vector<Query> queries = MakeQueries(table, 10, 1300);
  ASSERT_TRUE(client->RunBatch(queries).ok());
  ASSERT_TRUE(client->RunBatch(queries).ok());
  ASSERT_TRUE(client->Insert({1, 2, 3}).ok());
  StatusOr<uint64_t> deleted = client->Delete(RowsOf(table)[0]);
  ASSERT_TRUE(deleted.ok());
  ASSERT_GE(*deleted, 1u);
  ASSERT_TRUE(client->Health().ok());

  const QueryStats stats = db->cumulative_stats();
  ASSERT_GT(stats.points_scanned, stats.points_matched);
  const double tombstones = static_cast<double>(*deleted);
  std::vector<testing::GoldenEntry> want = {
      {"serve.connections_accepted", 1},
      {"serve.connections_active", 1},
      {"serve.connections_rejected", 0},
      {"serve.connections_closed_idle", 0},
      {"serve.frames_decoded", 6},
      {"serve.bad_frames", 0},
      {"serve.requests_shed", 0},
      {"serve.batches_submitted", 2},
      {"serve.queries_executed", 2.0 * queries.size()},
      {"serve.writes_applied", 2},
      {"serve.bytes_in", testing::kAnyValue},
      {"serve.bytes_out", testing::kAnyValue},
      {"serve.queue_depth", 0},
      {"serve.queue_depth_hwm", 1},
      {"serve.loop_errors", 0},
      {"serve.accept_failures", 0},
      {"serve.recv_errors", 0},
      {"serve.send_errors", 0},
      {"serve.health_checks", 1},
      {"serve.metrics_scrapes", 0},
      {"persist.dir_fsync_failures", testing::kAnyValue},
  };
  testing::GoldenDb golden_db;
  golden_db.base_rows = 3'000;
  golden_db.num_rows = 3'001 - tombstones;
  golden_db.delta_inserts = 1;
  golden_db.delta_tombstones = tombstones;
  golden_db.queries_run = 2.0 * queries.size();
  golden_db.batches_inline = 2;  // No pool: every batch runs inline.
  golden_db.num_threads = 1;
  golden_db.stats = stats;
  for (testing::GoldenEntry& entry : testing::GoldenDbEntries("", golden_db)) {
    want.push_back(std::move(entry));
  }
  const auto entries = (*server)->Introspect();
  testing::ExpectGolden(entries, want);
  EXPECT_GT(entries[10].second, 0.0);  // serve.bytes_in
  EXPECT_GT(entries[11].second, 0.0);  // serve.bytes_out

  // The wire Metrics response carries the same keys; its own frame is the
  // seventh decoded.
  auto wire = client->Metrics();
  ASSERT_TRUE(wire.ok());
  want[4].value = 7;
  testing::ExpectGolden(wire->entries, want);

  (*server)->Shutdown();
  (*server)->Join();
}

/// One HTTP GET over a raw loopback TCP socket; returns the body ("" on
/// any failure or a non-200 status).
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return "";
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) == 0) {
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buf[4096];
      ssize_t n;
      while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        response.append(buf, static_cast<size_t>(n));
      }
    }
  }
  ::close(fd);
  const size_t body = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.0 200", 0) != 0 || body == std::string::npos) {
    return "";
  }
  return response.substr(body + 4);
}

/// Family name -> TYPE for every `# TYPE` line, plus each unlabelled
/// sample's value. Fails the test on a family declared twice.
struct Scrape {
  std::map<std::string, std::string> types;
  std::map<std::string, double> samples;
};

Scrape ParseScrape(const std::string& text) {
  Scrape scrape;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string first, name, type;
    fields >> first;
    if (first == "#") {
      std::string keyword;
      fields >> keyword >> name >> type;
      if (keyword != "TYPE") continue;
      EXPECT_TRUE(scrape.types.emplace(name, type).second)
          << "two families named " << name;
    } else if (!first.empty() && first.find('{') == std::string::npos) {
      double value = 0;
      fields >> value;
      scrape.samples[first] = value;
    }
  }
  return scrape;
}

// Every count reaches /metrics once, as a per-instance Introspect() gauge;
// the registry contributes histograms only. kMetrics carries the same two
// halves in binary.
TEST(ServeServerTest, LiveScrapeAndMetricsCountEachEventOnce) {
  const Table table = MakeTable(DataShape::kUniform, 3'000, 3, 81);
  StatusOr<Database> db = OpenDb(table, "kdtree", 2);
  ASSERT_TRUE(db.ok());

  ServerOptions sopts;
  SocketPath sock("scrape");
  sopts.uds_path = sock.path;
  sopts.metrics_addr = "127.0.0.1:0";
  auto server = Server::Create(&*db, std::move(sopts));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_NE((*server)->metrics_port(), 0);
  (*server)->Start();

  auto client = Client::Connect("unix:" + sock.path);
  ASSERT_TRUE(client.ok());
  const std::vector<Query> queries = MakeQueries(table, 8, 1600);
  for (int i = 0; i < 3; ++i) {
    auto reply = client->RunBatch(queries);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->code, WireCode::kOk);
  }

  const std::string first = HttpGet((*server)->metrics_port(), "/metrics");
  ASSERT_FALSE(first.empty());
  const Scrape scrape = ParseScrape(first);
  EXPECT_EQ(scrape.types.count("flood_db_points_scanned"), 1u) << first;
  EXPECT_EQ(scrape.samples.count("flood_db_points_scanned"), 1u);
  EXPECT_EQ(scrape.types.count("flood_serve_connections_active"), 1u);
  for (const auto& [family, type] : scrape.types) {
    EXPECT_FALSE(family.ends_with("_total")) << family;
    EXPECT_TRUE(type == "histogram" || type == "gauge") << family;
  }

  // The first scrape is counted by the second.
  const Scrape second =
      ParseScrape(HttpGet((*server)->metrics_port(), "/metrics"));
  ASSERT_EQ(second.samples.count("flood_serve_metrics_scrapes"), 1u);
  EXPECT_GE(second.samples.at("flood_serve_metrics_scrapes"), 1.0);
  EXPECT_GE((*server)->counters().metrics_scrapes, 2u);

  // kMetrics: the typed half is exactly the scrape's histogram families,
  // and the flat half is the server's Introspect() map.
  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  ASSERT_FALSE(metrics->metrics.empty());
  std::set<std::string> histograms;
  for (const auto& [family, type] : scrape.types) {
    if (type == "histogram") histograms.insert(family);
  }
  std::set<std::string> typed;
  for (const obs::MetricSnapshot& m : metrics->metrics) typed.insert(m.name);
  EXPECT_EQ(typed, histograms);
  std::set<std::string> introspect_keys;
  for (const auto& [key, value] : (*server)->Introspect()) {
    introspect_keys.insert(key);
  }
  std::set<std::string> entry_keys;
  for (const auto& [key, value] : metrics->entries) entry_keys.insert(key);
  EXPECT_EQ(entry_keys, introspect_keys);

  (*server)->Shutdown();
  (*server)->Join();
}

// ---------------------------------------------------------------------------
// Corruption handling at the socket boundary.
// ---------------------------------------------------------------------------

TEST(ServeServerTest, GarbageBytesGetTypedErrorThenConnectionCloses) {
  const Table table = MakeTable(DataShape::kUniform, 2'000, 3, 76);
  StatusOr<Database> db = OpenDb(table, "kdtree", 1);
  ASSERT_TRUE(db.ok());

  ServerOptions sopts;
  SocketPath sock("garbage");
  sopts.uds_path = sock.path;
  auto server = Server::Create(&*db, std::move(sopts));
  ASSERT_TRUE(server.ok());
  (*server)->Start();

  {
    RawConn conn(sock.path);
    ASSERT_GE(conn.fd, 0);
    ASSERT_TRUE(conn.SendAll("GET / HTTP/1.1\r\nHost: nope\r\n\r\n"));
    Frame frame;
    ASSERT_TRUE(conn.NextFrame(&frame));
    ASSERT_EQ(frame.type, MessageType::kError);
    StatusOr<ErrorResponse> err = ParseError(frame.payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->code, WireCode::kBadFrame);
    EXPECT_TRUE(conn.WaitForClose());
  }
  {
    // A valid frame followed by a flipped-CRC frame: the first one is
    // answered, then the typed error, then close.
    RawConn conn(sock.path);
    ASSERT_GE(conn.fd, 0);
    std::string bytes;
    AppendRequestId(MessageType::kPing, {1}, &bytes);
    std::string broken;
    AppendRequestId(MessageType::kPing, {2}, &broken);
    broken[12] = static_cast<char>(broken[12] ^ 0x55);
    bytes += broken;
    ASSERT_TRUE(conn.SendAll(bytes));
    Frame frame;
    ASSERT_TRUE(conn.NextFrame(&frame));
    EXPECT_EQ(frame.type, MessageType::kPong);
    ASSERT_TRUE(conn.NextFrame(&frame));
    ASSERT_EQ(frame.type, MessageType::kError);
    StatusOr<ErrorResponse> err = ParseError(frame.payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->code, WireCode::kBadFrame);
    EXPECT_TRUE(conn.WaitForClose());
  }

  const ServerCounters c = (*server)->counters();
  EXPECT_GE(c.bad_frames, 2u);

  (*server)->Shutdown();
  (*server)->Join();
}

// ---------------------------------------------------------------------------
// Drain.
// ---------------------------------------------------------------------------

TEST(ServeServerTest, ShutdownDrainsInFlightWorkThenCloses) {
  const Table table = MakeTable(DataShape::kUniform, 50'000, 3, 77);
  StatusOr<Database> db = OpenDb(table, "full_scan", 2);
  ASSERT_TRUE(db.ok());

  ServerOptions sopts;
  SocketPath sock("drain");
  sopts.uds_path = sock.path;
  auto server = Server::Create(&*db, std::move(sopts));
  ASSERT_TRUE(server.ok());
  (*server)->Start();

  // Submit a heavy batch, then immediately initiate the drain: the batch
  // was admitted, so its full result must still arrive before the server
  // closes the connection and exits.
  const std::vector<Query> queries = MakeQueries(table, 16, 1300);
  RunBatchRequest req;
  req.request_id = 555;
  req.queries = queries;
  std::string bytes;
  AppendRunBatch(req, &bytes);

  RawConn conn(sock.path);
  ASSERT_GE(conn.fd, 0);
  ASSERT_TRUE(conn.SendAll(bytes));
  (*server)->Shutdown();

  Frame frame;
  ASSERT_TRUE(conn.NextFrame(&frame));
  if (frame.type == MessageType::kBatchResult) {
    // Admitted before the drain began: full results.
    StatusOr<BatchResultResponse> resp = ParseBatchResult(frame.payload);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->request_id, 555u);
    EXPECT_EQ(resp->code, WireCode::kOk);
    EXPECT_EQ(resp->results.size(), queries.size());
  } else {
    // The drain won the race to the admission check: typed shed.
    ASSERT_EQ(frame.type, MessageType::kError);
    StatusOr<ErrorResponse> err = ParseError(frame.payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err->code, WireCode::kShuttingDown);
  }
  EXPECT_TRUE(conn.WaitForClose());

  (*server)->Join();  // Run() must have returned: the drain completed.

  // New connections are refused after the drain (socket file removed).
  RawConn late(sock.path);
  EXPECT_LT(late.fd, 0);
}

TEST(ServeServerTest, IdleConnectionsAreSweptAndCounted) {
  const Table table = MakeTable(DataShape::kUniform, 2'000, 3, 78);
  StatusOr<Database> db = OpenDb(table, "kdtree", 1);
  ASSERT_TRUE(db.ok());

  ServerOptions sopts;
  SocketPath sock("idle");
  sopts.uds_path = sock.path;
  sopts.idle_timeout_ms = 50;
  auto server = Server::Create(&*db, std::move(sopts));
  ASSERT_TRUE(server.ok());
  (*server)->Start();

  RawConn conn(sock.path);
  ASSERT_GE(conn.fd, 0);
  std::string ping;
  AppendRequestId(MessageType::kPing, {1}, &ping);
  ASSERT_TRUE(conn.SendAll(ping));
  Frame frame;
  ASSERT_TRUE(conn.NextFrame(&frame));
  EXPECT_EQ(frame.type, MessageType::kPong);
  // Now go silent; the sweep must close us.
  EXPECT_TRUE(conn.WaitForClose());
  EXPECT_GE((*server)->counters().connections_closed_idle, 1u);

  (*server)->Shutdown();
  (*server)->Join();
}

// ---------------------------------------------------------------------------
// TCP listener.
// ---------------------------------------------------------------------------

// Create rejects each malformed listener option with InvalidArgument
// before anything is served.
TEST(ServeServerTest, CreateRejectsMalformedListenerOptions) {
  const Table table = MakeTable(DataShape::kUniform, 500, 2, 80);
  StatusOr<Database> db = OpenDb(table, "kdtree", 1);
  ASSERT_TRUE(db.ok());
  const auto expect_invalid = [&](const std::string& what,
                                  ServerOptions sopts) {
    SCOPED_TRACE(what);
    auto server = Server::Create(&*db, std::move(sopts));
    ASSERT_FALSE(server.ok());
    EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument)
        << server.status().ToString();
  };
  const auto tcp = [] {
    ServerOptions sopts;
    sopts.listen_tcp = true;
    return sopts;
  };

  ServerOptions bad_host = tcp();
  bad_host.tcp_host = "x";
  expect_invalid("tcp_host x", std::move(bad_host));
  for (const std::string addr :
       {"127.0.0.1", "127.0.0.1:70000", "127.0.0.1:p", "nohost:0"}) {
    ServerOptions sopts = tcp();
    sopts.metrics_addr = addr;
    expect_invalid("metrics_addr " + addr, std::move(sopts));
  }
  ServerOptions long_path;
  long_path.uds_path = std::string(200, 'u');  // sun_path holds 108.
  expect_invalid("uds_path of 200 bytes", std::move(long_path));
}


TEST(ServeServerTest, TcpLoopbackServesTheSameProtocol) {
  const Table table = MakeTable(DataShape::kUniform, 3'000, 3, 79);
  StatusOr<Database> db = OpenDb(table, "kdtree", 2);
  ASSERT_TRUE(db.ok());

  ServerOptions sopts;
  sopts.listen_tcp = true;
  sopts.tcp_port = 0;  // Kernel-assigned.
  auto server = Server::Create(&*db, std::move(sopts));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_NE((*server)->tcp_port(), 0);
  (*server)->Start();

  auto client = Client::Connect("127.0.0.1:" +
                                std::to_string((*server)->tcp_port()));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Ping().ok());

  const std::vector<Query> queries = MakeQueries(table, 12, 1400);
  const BatchResult local = db->RunBatch(queries);
  auto wire = client->RunBatch(queries);
  ASSERT_TRUE(wire.ok());
  ASSERT_EQ(wire->code, WireCode::kOk);
  ASSERT_EQ(wire->results.size(), local.results.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(wire->results[i].count, local.results[i].count);
    EXPECT_EQ(wire->results[i].sum, local.results[i].sum);
  }

  (*server)->Shutdown();
  (*server)->Join();
}

// ---------------------------------------------------------------------------
// Pipelining: many frames in flight on one connection, replies matched by
// request id.
// ---------------------------------------------------------------------------

TEST(ServeServerTest, CheapBatchesRunOnTheLoopAndDrainClean) {
  // Groups the database predicts below Database::kInlineBatchNs run on the
  // event loop, whose completions are delivered directly. Replies must
  // still match RunBatch bit for bit, an expensive group must still go to
  // the pool, and the drain must leave nothing in flight.
  const Table table = MakeTable(DataShape::kUniform, 50'000, 3, 81);
  StatusOr<Database> db = OpenDb(table, "clustered", 2);
  ASSERT_TRUE(db.ok());
  // Lookups of absent keys: cheap enough to run inline even under TSan.
  // Many queries in the warm-up spread its cold-start cost thin.
  const std::vector<Query> absent = AbsentKeyQueries(table, 1'024);
  std::vector<Query> lookups = PointQueries(table, 32);
  for (size_t i = 0; i < lookups.size(); i += 2) {
    lookups[i].set_agg({AggSpec::Kind::kSum, i % 3});
  }

  // The warm-up batch: a fresh database has no mean, so it runs on the
  // pool, and its mean becomes the database's.
  const BatchResult warm = db->RunBatch(absent);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_EQ(db->batches_inline(), 0u);
  const int64_t warm_mean =
      warm.stats.total_ns / static_cast<int64_t>(warm.executed());
  // Far below the constant in an optimized build; under a sanitizer a
  // lookup can cost more, and then every group rightly goes to the pool.
  const bool predicted_cheap = warm_mean < Database::kInlineBatchNs;
#ifdef NDEBUG
  ASSERT_TRUE(predicted_cheap) << warm_mean;
#endif

  ServerOptions sopts;
  SocketPath sock("inline");
  sopts.uds_path = sock.path;
  sopts.max_inflight_per_connection = 64;
  auto server = Server::Create(&*db, std::move(sopts));
  ASSERT_TRUE(server.ok());
  (*server)->Start();
  auto client = Client::Connect("unix:" + sock.path);
  ASSERT_TRUE(client.ok());

  auto expect_identical = [](const BatchResultResponse& reply,
                             const QueryResult& local) {
    ASSERT_EQ(reply.code, WireCode::kOk) << reply.message;
    ASSERT_EQ(reply.results.size(), 1u);
    EXPECT_EQ(reply.results[0].count, local.count);
    EXPECT_EQ(reply.results[0].sum, local.sum);
    EXPECT_EQ(reply.results[0].kind == 1,
              local.kind == QueryResult::Kind::kSum);
    EXPECT_EQ(reply.results[0].skipped_empty, local.skipped_empty);
  };
  // One frame at a time: each group is one query, predicted at the
  // moving mean of the absent-key lookups. The first is predicted at
  // exactly the warm-up's mean.
  for (size_t i = 0; i < 8; ++i) {
    StatusOr<BatchResultResponse> reply = client->RunBatch({&absent[i], 1});
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    expect_identical(*reply, warm.results[i]);
    if (i == 0) EXPECT_EQ(db->batches_inline(), predicted_cheap ? 1u : 0u);
  }

  // Pipelined one-query frames of real lookups: however the loop groups
  // them, and wherever the groups run, every reply matches.
  const BatchResult local = db->RunBatch(lookups);
  ASSERT_TRUE(local.status.ok());
  for (size_t i = 0; i < lookups.size(); ++i) {
    ASSERT_TRUE(client->SendRunBatch(i + 1, {&lookups[i], 1}).ok());
  }
  for (size_t n = 0; n < lookups.size(); ++n) {
    StatusOr<BatchResultResponse> reply = client->ReadBatchReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_GE(reply->request_id, 1u);
    ASSERT_LE(reply->request_id, lookups.size());
    expect_identical(*reply, local.results[reply->request_id - 1]);
  }
  const uint64_t inline_before_full = db->batches_inline();

  // A full-range group large enough that even at the absent-key mean it
  // is predicted far above the constant: the pool runs it.
  Query all(3);
  all.set_agg({AggSpec::Kind::kSum, 2});
  const size_t big =
      16 * static_cast<size_t>(Database::kInlineBatchNs / warm_mean + 1);
  const std::vector<Query> full(big, all);
  StatusOr<BatchResultResponse> reply = client->RunBatch(full);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->code, WireCode::kOk) << reply->message;
  ASSERT_EQ(reply->results.size(), big);
  EXPECT_EQ(reply->results[0].count, table.num_rows());
  EXPECT_EQ(reply->results[big - 1].sum, reply->results[0].sum);
  EXPECT_EQ(db->batches_inline(), inline_before_full);

  (*server)->Shutdown();
  ASSERT_TRUE((*server)->Join().ok());
  const ServerCounters c = (*server)->counters();
  EXPECT_EQ(c.queue_depth, 0u);
  EXPECT_EQ(c.requests_shed, 0u);
  EXPECT_EQ(c.queries_executed, 8 + lookups.size() + big);
}

TEST(ServeServerTest, PipelinedFramesAllAnsweredAndMatchedById) {
  const Table table = MakeTable(DataShape::kUniform, 5'000, 3, 80);
  StatusOr<Database> db = OpenDb(table, "kdtree", 4);
  ASSERT_TRUE(db.ok());

  ServerOptions sopts;
  SocketPath sock("pipeline");
  sopts.uds_path = sock.path;
  sopts.max_inflight_per_connection = 64;
  auto server = Server::Create(&*db, std::move(sopts));
  ASSERT_TRUE(server.ok());
  (*server)->Start();

  auto client = Client::Connect("unix:" + sock.path);
  ASSERT_TRUE(client.ok());

  constexpr uint64_t kFrames = 32;
  const std::vector<Query> queries = MakeQueries(table, 5, 1500);
  const BatchResult local = db->RunBatch(queries);
  for (uint64_t id = 1; id <= kFrames; ++id) {
    ASSERT_TRUE(client->SendRunBatch(id, queries).ok());
  }
  std::vector<bool> seen(kFrames + 1, false);
  for (uint64_t i = 0; i < kFrames; ++i) {
    auto reply = client->ReadBatchReply();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->code, WireCode::kOk) << reply->message;
    ASSERT_GE(reply->request_id, 1u);
    ASSERT_LE(reply->request_id, kFrames);
    EXPECT_FALSE(seen[reply->request_id]) << "duplicate reply";
    seen[reply->request_id] = true;
    ASSERT_EQ(reply->results.size(), local.results.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(reply->results[q].count, local.results[q].count);
      EXPECT_EQ(reply->results[q].sum, local.results[q].sum);
    }
  }

  // Fewer batch submissions than frames proves per-connection batching
  // actually grouped pipelined frames (at least some read burst carried
  // more than one frame). With 32 frames written back-to-back this holds
  // in practice; assert the weak direction only (no inflation).
  const ServerCounters c = (*server)->counters();
  EXPECT_LE(c.batches_submitted, kFrames);
  EXPECT_EQ(c.queries_executed, kFrames * queries.size());

  (*server)->Shutdown();
  (*server)->Join();
}

// The one backoff schedule Client::Connect and RunBatch's shed retries
// both sleep: exact without jitter, within its bounds and repeatable per
// seed with it.
TEST(ClientBackoffTest, DelayScheduleFollowsThePolicy) {
  RetryPolicy policy;
  policy.initial_backoff_ms = 10;
  policy.multiplier = 2.0;
  policy.max_backoff_ms = 100;
  policy.jitter = 0.0;
  Rng rng(policy.seed);
  const double exact[] = {10, 20, 40, 80, 100, 100};
  for (int attempt = 1; attempt <= 6; ++attempt) {
    EXPECT_EQ(BackoffDelayMs(policy, attempt, rng), exact[attempt - 1])
        << "attempt " << attempt;
  }

  policy.jitter = 0.5;
  Rng a(policy.seed);
  Rng b(policy.seed);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const double nominal = exact[attempt - 1];
    const double ms = BackoffDelayMs(policy, attempt, a);
    EXPECT_GE(ms, 0.5 * nominal) << "attempt " << attempt;
    EXPECT_LE(ms, 1.5 * nominal) << "attempt " << attempt;
    EXPECT_EQ(ms, BackoffDelayMs(policy, attempt, b)) << "attempt " << attempt;
  }

  // Jitter clamps to [0, 1]; a negative initial backoff means no delay.
  policy.jitter = 3.0;
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const double ms = BackoffDelayMs(policy, attempt, a);
    EXPECT_GE(ms, 0.0);
    EXPECT_LE(ms, 2.0 * exact[attempt - 1]);
  }
  policy.initial_backoff_ms = -5;
  EXPECT_EQ(BackoffDelayMs(policy, 3, a), 0.0);
}

}  // namespace
}  // namespace serve
}  // namespace flood
