// Fault-injection sweep over the failpoint framework (src/common/failpoint)
// and every hardened failure path behind it: WAL and snapshot faults must
// surface as typed Status (never crash, hang, or silently succeed) and
// never lose an acknowledged kSync write; the serving tier must shed
// accept storms politely, turn loop/recv/send failures into typed
// outcomes and counters, and keep answering kHealth; the client's
// deadlines and retry policy must make dead or overloaded servers a typed
// error instead of a hang. The whole binary is a no-op (GTEST_SKIP) when
// failpoints are compiled out — CI runs it under -DFLOOD_FAILPOINTS=ON
// with ASan.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "common/failpoint.h"
#include "persist/snapshot.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tests/test_util.h"

namespace flood {
namespace {

using testing::DataShape;
using testing::MakeTable;
using testing::TempFile;

/// Every failpoint site threaded through the codebase. The catalog sweep
/// at the bottom proves each one is armable and fires; keep in sync with
/// src/common/README.md.
constexpr const char* kSiteCatalog[] = {
    // persist/snapshot.cc
    "persist.dir_fsync",
    "persist.snapshot.open",
    "persist.snapshot.write",
    "persist.snapshot.fsync",
    "persist.snapshot.rename",
    "persist.snapshot.read",
    // persist/wal.cc
    "wal.read",
    "wal.open",
    "wal.write",
    "wal.append",
    "wal.fsync",
    "wal.truncate",
    // api/database.cc
    "db.compact",
    // serve/server.cc
    "serve.epoll_wait",
    "serve.accept",
    "serve.recv",
    "serve.send",
    // serve/client.cc
    "serve.client.connect",
    "serve.client.poll",
    "serve.client.send",
    "serve.client.recv",
};

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!failpoint::kEnabled) {
      GTEST_SKIP() << "failpoints compiled out (build with "
                      "-DFLOOD_FAILPOINTS=ON)";
    }
    failpoint::DisarmAll();
  }
  void TearDown() override {
    if (failpoint::kEnabled) failpoint::DisarmAll();
  }
};

// --- Framework: spec grammar, triggers, counters ----------------------------

TEST_F(FaultInjectionTest, ConfigureParsesTheFullGrammar) {
  EXPECT_TRUE(failpoint::Configure("").ok());
  EXPECT_TRUE(failpoint::Configure("a.b=err:EIO").ok());
  EXPECT_TRUE(failpoint::Configure("a.b=err:28").ok());
  EXPECT_TRUE(
      failpoint::Configure("a.b=err:EIO@3;c.d=shortwrite:0.2;e.f=eintr:5")
          .ok());
  EXPECT_TRUE(failpoint::Configure("a.b=err:ENOSPC@every:7").ok());
  EXPECT_TRUE(failpoint::Configure("a.b=err:EIO@p:0.5").ok());
  EXPECT_TRUE(failpoint::Configure("a.b=off").ok());

  EXPECT_FALSE(failpoint::Configure("noequals").ok());
  EXPECT_FALSE(failpoint::Configure("=err:EIO").ok());
  EXPECT_FALSE(failpoint::Configure("a.b=err:EWHAT").ok());
  EXPECT_FALSE(failpoint::Configure("a.b=bogus").ok());
  EXPECT_FALSE(failpoint::Configure("a.b=shortwrite:1.5").ok());
  EXPECT_FALSE(failpoint::Configure("a.b=shortwrite:0").ok());
  EXPECT_FALSE(failpoint::Configure("a.b=eintr:0").ok());
  EXPECT_FALSE(failpoint::Configure("a.b=err:EIO@every:0").ok());
  EXPECT_FALSE(failpoint::Configure("a.b=err:EIO@p:2").ok());
  EXPECT_FALSE(failpoint::Configure("a.b=err:EIO@wat").ok());
  EXPECT_FALSE(failpoint::Configure("a.b=off:1").ok());
}

TEST_F(FaultInjectionTest, TriggersFireOnSchedule) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  char byte = 'x';

  // One-shot on the 2nd hit.
  ASSERT_TRUE(failpoint::Arm("t.oneshot", "err:EIO@2").ok());
  EXPECT_EQ(failpoint::InjectedWrite("t.oneshot", fds[1], &byte, 1), 1);
  errno = 0;
  EXPECT_EQ(failpoint::InjectedWrite("t.oneshot", fds[1], &byte, 1), -1);
  EXPECT_EQ(errno, EIO);
  EXPECT_EQ(failpoint::InjectedWrite("t.oneshot", fds[1], &byte, 1), 1);
  EXPECT_EQ(failpoint::Hits("t.oneshot"), 3u);
  EXPECT_EQ(failpoint::Triggers("t.oneshot"), 1u);

  // @once is one-shot relative to the *current* hit count.
  ASSERT_TRUE(failpoint::Arm("t.oneshot", "err:ENOSPC@once").ok());
  errno = 0;
  EXPECT_EQ(failpoint::InjectedWrite("t.oneshot", fds[1], &byte, 1), -1);
  EXPECT_EQ(errno, ENOSPC);
  EXPECT_EQ(failpoint::InjectedWrite("t.oneshot", fds[1], &byte, 1), 1);

  // Every 2nd hit.
  ASSERT_TRUE(failpoint::Arm("t.nth", "err:EIO@every:2").ok());
  int failures = 0;
  for (int i = 0; i < 6; ++i) {
    if (failpoint::InjectedWrite("t.nth", fds[1], &byte, 1) < 0) ++failures;
  }
  EXPECT_EQ(failures, 3);

  // p:1 always fires, and the seed makes probabilistic schedules
  // reproducible.
  failpoint::SetSeed(1234);
  ASSERT_TRUE(failpoint::Arm("t.prob", "err:EIO@p:1.0").ok());
  EXPECT_EQ(failpoint::InjectedWrite("t.prob", fds[1], &byte, 1), -1);

  // Disarm stops injection but keeps counters.
  failpoint::Disarm("t.prob");
  EXPECT_EQ(failpoint::InjectedWrite("t.prob", fds[1], &byte, 1), 1);
  EXPECT_EQ(failpoint::Hits("t.prob"), 2u);
  EXPECT_EQ(failpoint::Triggers("t.prob"), 1u);

  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(FaultInjectionTest, EintrStormsAreFinite) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  char byte = 'x';
  ASSERT_TRUE(failpoint::Arm("t.eintr", "eintr:3").ok());
  // A retrying call site (like every WriteAllFd/recv loop in the tree)
  // must always make progress: 3 EINTRs, then one real write, repeating.
  int eintrs = 0;
  int successes = 0;
  for (int i = 0; i < 8; ++i) {
    const ssize_t n = failpoint::InjectedWrite("t.eintr", fds[1], &byte, 1);
    if (n < 0) {
      EXPECT_EQ(errno, EINTR);
      ++eintrs;
    } else {
      ++successes;
    }
  }
  EXPECT_EQ(eintrs, 6);
  EXPECT_EQ(successes, 2);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_F(FaultInjectionTest, ShortWritesTransferAtLeastOneByte) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string payload(100, 'a');
  ASSERT_TRUE(failpoint::Arm("t.short", "shortwrite:0.3").ok());
  const ssize_t n = failpoint::InjectedWrite("t.short", fds[1],
                                             payload.data(), payload.size());
  EXPECT_EQ(n, 30);  // floor(0.3 * 100), clamped to [1, n-1].
  // A 1-byte request cannot be shortened; it passes through whole.
  char byte = 'b';
  EXPECT_EQ(failpoint::InjectedWrite("t.short", fds[1], &byte, 1), 1);
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- Persistence: WAL faults ------------------------------------------------

DatabaseOptions WalOptions(const std::string& wal_path) {
  DatabaseOptions options;
  options.index_name = "full_scan";
  options.wal_path = wal_path;
  options.durability = Durability::kSync;
  return options;
}

std::vector<Value> PatternRow(uint64_t i) {
  return {static_cast<Value>(i), static_cast<Value>(i * 7 + 3)};
}

TEST_F(FaultInjectionTest, WalFsyncFailureIsTypedAndStagesNothing) {
  const Table base = MakeTable(DataShape::kUniform, 200, 2, 17);
  TempFile wal("fi_fsync.wal");
  StatusOr<Database> db = Database::Open(base, WalOptions(wal.path()));
  ASSERT_TRUE(db.ok());

  ASSERT_TRUE(failpoint::Arm("wal.fsync", "err:EIO").ok());
  const Status failed = db->Insert(PatternRow(0));
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("fsync"), std::string::npos);
  // Log-before-mutate: the unacknowledged row was not staged.
  EXPECT_EQ(db->pending_writes(), 0u);
  EXPECT_EQ(db->num_rows(), 200u);

  // The failure was transient, not sticky: disarmed, writes flow again.
  failpoint::DisarmAll();
  ASSERT_TRUE(db->Insert(PatternRow(0)).ok());
  EXPECT_EQ(db->num_rows(), 201u);
}

TEST_F(FaultInjectionTest, AcknowledgedSyncWritesSurviveInjectedWalFaults) {
  // For each fault flavor: hammer inserts while the fault schedule fires,
  // remember exactly which ones were acknowledged, then reopen from
  // table + WAL and demand every acknowledged row (and no torn garbage)
  // is visible. This is the ISSUE's core durability acceptance.
  const char* kSchedules[] = {
      "wal.fsync=err:EIO@every:3",
      "wal.append=err:ENOSPC@every:4",
      "wal.append=shortwrite:0.4@every:2",
      "wal.append=eintr:3",
  };
  for (const char* schedule : kSchedules) {
    SCOPED_TRACE(schedule);
    failpoint::DisarmAll();
    const Table base = MakeTable(DataShape::kUniform, 150, 2, 29);
    TempFile wal("fi_survive.wal");
    std::vector<uint64_t> acked;
    {
      StatusOr<Database> db = Database::Open(base, WalOptions(wal.path()));
      ASSERT_TRUE(db.ok());
      ASSERT_TRUE(failpoint::Configure(schedule).ok());
      for (uint64_t i = 0; i < 24; ++i) {
        if (db->Insert(PatternRow(i)).ok()) acked.push_back(i);
      }
      failpoint::DisarmAll();
      // The db is dropped *without* a checkpoint: recovery must come
      // entirely from the WAL.
    }
    // Short writes and finite EINTR storms are retried through to
    // success by the call-site loops; only hard errno injections shed.
    if (std::string(schedule).find("err:") == std::string::npos) {
      EXPECT_EQ(acked.size(), 24u);
    } else {
      EXPECT_LT(acked.size(), 24u);
      EXPECT_GT(acked.size(), 0u);
    }

    StatusOr<Database> reopened =
        Database::Open(base, WalOptions(wal.path()));
    ASSERT_TRUE(reopened.ok());
    EXPECT_GE(reopened->num_rows(), 150u + acked.size());
    for (const uint64_t i : acked) {
      const std::vector<Value> row = PatternRow(i);
      Query probe(2);
      probe.SetEquals(0, row[0]);
      probe.SetEquals(1, row[1]);
      const QueryResult r = reopened->Run(probe);
      EXPECT_GE(r.count, 1u) << "acknowledged row " << i << " lost";
    }
  }
}

TEST_F(FaultInjectionTest, WalTruncateFailureAtCheckpointDetachesTheWal) {
  const Table base = MakeTable(DataShape::kUniform, 120, 2, 31);
  TempFile wal("fi_detach.wal");
  TempFile snap("fi_detach.snap");
  StatusOr<Database> db = Database::Open(base, WalOptions(wal.path()));
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Insert(PatternRow(1)).ok());

  // The snapshot itself succeeds; resetting the WAL to the new epoch
  // fails. The WAL must detach and refuse writes — acknowledging through
  // a log that no longer pairs with the snapshot would be a lie.
  ASSERT_TRUE(failpoint::Arm("wal.truncate", "err:EIO@once").ok());
  const Status saved = db->Save(snap.path());
  ASSERT_FALSE(saved.ok());
  EXPECT_NE(saved.message().find("detached"), std::string::npos);
  const Status refused = db->Insert(PatternRow(2));
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("refused"), std::string::npos);
  // Reads still serve.
  EXPECT_EQ(db->num_rows(), 121u);

  // Reopening from the just-written snapshot recovers cleanly: the stale
  // lower-epoch WAL is discarded and a fresh one created.
  failpoint::DisarmAll();
  StatusOr<Database> reopened =
      Database::Open(snap.path(), WalOptions(wal.path()));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->num_rows(), 121u);
  EXPECT_TRUE(reopened->Insert(PatternRow(2)).ok());
}

// --- Persistence: snapshot faults -------------------------------------------

TEST_F(FaultInjectionTest, SnapshotFaultsAreTypedAndKeepThePreviousSnapshot) {
  const Table base = MakeTable(DataShape::kUniform, 150, 2, 41);
  TempFile snap("fi_snap.snap");
  DatabaseOptions options;
  options.index_name = "full_scan";
  StatusOr<Database> db = Database::Open(base, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Save(snap.path()).ok());
  ASSERT_TRUE(db->Insert(PatternRow(7)).ok());

  const char* kSites[] = {
      "persist.snapshot.open",
      "persist.snapshot.write",
      "persist.snapshot.fsync",
      "persist.snapshot.rename",
  };
  for (const char* site : kSites) {
    SCOPED_TRACE(site);
    ASSERT_TRUE(failpoint::Arm(site, "err:EIO@once").ok());
    const Status failed = db->Save(snap.path());
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.code(), StatusCode::kInternal);
    // Checkpoint health is poisoned, but reads and writes keep serving.
    EXPECT_TRUE(db->persistence_poisoned());
    EXPECT_EQ(db->num_rows(), 151u);

    // The atomic write protocol never damages the previous snapshot.
    StatusOr<Database> previous = Database::Open(snap.path(), options);
    ASSERT_TRUE(previous.ok());
    EXPECT_EQ(previous->num_rows(), 150u);
  }

  // Once the faults clear, the next checkpoint succeeds and un-poisons.
  failpoint::DisarmAll();
  ASSERT_TRUE(db->Save(snap.path()).ok());
  EXPECT_FALSE(db->persistence_poisoned());
  StatusOr<Database> current = Database::Open(snap.path(), options);
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(current->num_rows(), 151u);
}

TEST_F(FaultInjectionTest, EnospcPoisonsPersistenceButReadsServe) {
  const Table base = MakeTable(DataShape::kUniform, 100, 2, 43);
  TempFile snap("fi_enospc.snap");
  DatabaseOptions options;
  options.index_name = "full_scan";
  StatusOr<Database> db = Database::Open(base, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Save(snap.path()).ok());

  ASSERT_TRUE(
      failpoint::Arm("persist.snapshot.write", "err:ENOSPC@once").ok());
  const Status failed = db->Save(snap.path());
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.message().find("No space"), std::string::npos);
  EXPECT_TRUE(db->persistence_poisoned());
  EXPECT_FALSE(db->persistence_status().ok());

  // Reads and writes are untouched by a poisoned checkpoint.
  Query q(2);
  q.SetRange(0, 0, 1'000'000);
  EXPECT_GT(db->Run(q).count, 0u);
  EXPECT_TRUE(db->Insert(PatternRow(9)).ok());
}

TEST_F(FaultInjectionTest, DirFsyncFailuresAreCountedNotFatal) {
  const Table base = MakeTable(DataShape::kUniform, 80, 2, 47);
  TempFile snap("fi_dirfsync.snap");
  DatabaseOptions options;
  options.index_name = "full_scan";
  StatusOr<Database> db = Database::Open(base, options);
  ASSERT_TRUE(db.ok());

  const uint64_t before = persist::DirFsyncFailures();
  ASSERT_TRUE(failpoint::Arm("persist.dir_fsync", "err:EIO").ok());
  // Same policy as a missing-parent open: the data file itself is synced
  // and intact, only the *directory entry's* durability is reduced — the
  // failure is surfaced through the counter, not by failing the save.
  EXPECT_TRUE(db->Save(snap.path()).ok());
  EXPECT_GT(persist::DirFsyncFailures(), before);
  failpoint::DisarmAll();
  StatusOr<Database> reopened = Database::Open(snap.path(), options);
  ASSERT_TRUE(reopened.ok());
}

TEST_F(FaultInjectionTest, OpenPathFaultsAreTypedNotFatal) {
  const Table base = MakeTable(DataShape::kUniform, 90, 2, 59);
  TempFile wal("fi_open.wal");
  TempFile snap("fi_open.snap");
  {
    StatusOr<Database> db = Database::Open(base, WalOptions(wal.path()));
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->Insert(PatternRow(3)).ok());
    ASSERT_TRUE(db->Save(snap.path()).ok());
  }

  // WAL open failure at Database::Open: typed, no crash, no partial db.
  // (A fresh path — the wal above now sits at the snapshot's epoch and
  // would be rejected as ahead of the bare base table anyway.)
  TempFile wal2("fi_open2.wal");
  ASSERT_TRUE(failpoint::Arm("wal.open", "err:EACCES@once").ok());
  StatusOr<Database> no_wal = Database::Open(base, WalOptions(wal2.path()));
  ASSERT_FALSE(no_wal.ok());
  EXPECT_GE(failpoint::Triggers("wal.open"), 1u);
  failpoint::DisarmAll();
  StatusOr<Database> with_wal =
      Database::Open(base, WalOptions(wal2.path()));
  ASSERT_TRUE(with_wal.ok());  // Same call succeeds sans injection.

  // Snapshot read failure at Database::Open(path): same.
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::Arm("persist.snapshot.read", "err:EIO@once").ok());
  DatabaseOptions options;
  options.index_name = "full_scan";
  StatusOr<Database> no_snap = Database::Open(snap.path(), options);
  ASSERT_FALSE(no_snap.ok());

  // Short reads on the same seams are retried through to success by the
  // read loops — a slow-trickling disk is not an error.
  failpoint::DisarmAll();
  ASSERT_TRUE(
      failpoint::Arm("persist.snapshot.read", "shortread:0.5").ok());
  StatusOr<Database> trickled = Database::Open(snap.path(), options);
  ASSERT_TRUE(trickled.ok());
  EXPECT_EQ(trickled->num_rows(), 91u);
  EXPECT_GT(failpoint::Triggers("persist.snapshot.read"), 1u);
}

TEST_F(FaultInjectionTest, ProbabilisticSchedulesAreSeedDeterministic) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  char byte = 'q';
  auto schedule = [&](uint64_t seed) {
    failpoint::DisarmAll();
    failpoint::SetSeed(seed);
    FLOOD_CHECK(failpoint::Arm("t.seed", "err:EIO@p:0.5").ok());
    std::string pattern;
    for (int i = 0; i < 32; ++i) {
      pattern +=
          failpoint::InjectedWrite("t.seed", fds[1], &byte, 1) < 0 ? 'X'
                                                                   : '.';
    }
    return pattern;
  };
  const std::string a = schedule(99);
  const std::string b = schedule(99);
  const std::string c = schedule(100);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // 2^-32 flake odds: distinct seeds, identical runs.
  EXPECT_NE(a.find('X'), std::string::npos);
  EXPECT_NE(a.find('.'), std::string::npos);
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- Auto-compaction backoff ------------------------------------------------

TEST_F(FaultInjectionTest, AutoCompactionBacksOffAfterInjectedFailure) {
  const Table base = MakeTable(DataShape::kUniform, 100, 2, 53);
  DatabaseOptions options;
  options.index_name = "full_scan";
  options.auto_retrain_fraction = 0.1;  // Threshold: > 10 staged writes.
  StatusOr<Database> db = Database::Open(base, options);
  ASSERT_TRUE(db.ok());

  ASSERT_TRUE(failpoint::Arm("db.compact", "err:EIO").ok());
  // Crossing the threshold triggers exactly one (failing) attempt...
  for (uint64_t i = 0; i < 11; ++i) {
    ASSERT_TRUE(db->Insert(PatternRow(i)).ok());
  }
  EXPECT_EQ(failpoint::Hits("db.compact"), 1u);
  EXPECT_FALSE(db->last_auto_compact_status().ok());
  EXPECT_EQ(db->pending_writes(), 11u);  // Nothing lost.

  // ...and the backoff suppresses retries until the delta has DOUBLED
  // (11 -> 22), not on every write.
  for (uint64_t i = 11; i < 21; ++i) {
    ASSERT_TRUE(db->Insert(PatternRow(i)).ok());
  }
  EXPECT_EQ(failpoint::Hits("db.compact"), 1u);
  ASSERT_TRUE(db->Insert(PatternRow(21)).ok());  // pending = 22: retry.
  EXPECT_EQ(failpoint::Hits("db.compact"), 2u);
  EXPECT_FALSE(db->last_auto_compact_status().ok());

  // Fault cleared: the next backoff expiry (44 staged) compacts for real,
  // clears the backoff and the sticky error, and drains the delta.
  failpoint::Disarm("db.compact");
  for (uint64_t i = 22; i < 44; ++i) {
    ASSERT_TRUE(db->Insert(PatternRow(i)).ok());
  }
  EXPECT_EQ(failpoint::Hits("db.compact"), 3u);
  EXPECT_TRUE(db->last_auto_compact_status().ok());
  EXPECT_EQ(db->pending_writes(), 0u);
  EXPECT_EQ(db->compactions(), 1u);
  EXPECT_EQ(db->num_rows(), 144u);
}

// --- Serving tier -----------------------------------------------------------

std::string UniqueSock(const std::string& tag) {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "flood_fi_" + std::to_string(::getpid()) +
         "_" + tag + "_" + std::to_string(counter.fetch_add(1)) + ".sock";
}

struct ServeHarness {
  std::unique_ptr<Database> db;
  std::unique_ptr<serve::Server> server;
  std::string address;

  explicit ServeHarness(const std::string& tag,
                        serve::ServerOptions sopts = {},
                        size_t rows = 2'000) {
    const Table base = MakeTable(DataShape::kUniform, rows, 2, 61);
    DatabaseOptions options;
    options.index_name = "full_scan";
    options.num_threads = 2;
    StatusOr<Database> opened = Database::Open(base, options);
    FLOOD_CHECK(opened.ok());
    db = std::make_unique<Database>(std::move(*opened));
    sopts.uds_path = UniqueSock(tag);
    StatusOr<std::unique_ptr<serve::Server>> created =
        serve::Server::Create(db.get(), std::move(sopts));
    FLOOD_CHECK(created.ok());
    server = std::move(*created);
    address = "unix:" + server->uds_path();
    server->Start();
  }
  ~ServeHarness() {
    if (server != nullptr) {
      server->Shutdown();
      (void)server->Join();
      ::unlink(server->uds_path().c_str());
    }
  }
};

serve::ClientOptions FastClientOptions() {
  serve::ClientOptions copts;
  copts.connect_timeout_ms = 5'000;
  copts.send_timeout_ms = 5'000;
  copts.recv_timeout_ms = 10'000;
  return copts;
}

TEST_F(FaultInjectionTest, EpollWaitFailureSurfacesAsTypedJoinStatus) {
  ServeHarness h("epoll");
  serve::ClientOptions copts = FastClientOptions();
  // The wake ping below races the loop's exit and may never be answered;
  // a short recv deadline keeps the race from stalling the test.
  copts.recv_timeout_ms = 300;
  StatusOr<serve::Client> client = serve::Client::Connect(h.address, copts);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());

  // The next epoll_wait call fails hard. The loop must exit with a typed
  // Internal — not break silently — and count it.
  ASSERT_TRUE(failpoint::Arm("serve.epoll_wait", "err:EBADF@once").ok());
  // Wake the loop so it re-enters epoll_wait promptly.
  (void)client->Ping();

  const Status loop = h.server->Join();
  ASSERT_FALSE(loop.ok());
  EXPECT_EQ(loop.code(), StatusCode::kInternal);
  EXPECT_NE(loop.message().find("epoll_wait"), std::string::npos);
  EXPECT_EQ(h.server->counters().loop_errors, 1u);
}

TEST_F(FaultInjectionTest, AcceptResourceExhaustionShedsWithoutSpinning) {
  ServeHarness h("accept");
  StatusOr<serve::Client> established =
      serve::Client::Connect(h.address, FastClientOptions());
  ASSERT_TRUE(established.ok());
  ASSERT_TRUE(established->Ping().ok());

  ASSERT_TRUE(failpoint::Arm("serve.accept", "err:EMFILE").ok());
  // The kernel still queues the connection in the backlog; the server
  // can't accept it while the fault holds.
  StatusOr<serve::Client> pending =
      serve::Client::Connect(h.address, FastClientOptions());
  ASSERT_TRUE(pending.ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  const serve::ServerCounters during = h.server->counters();
  EXPECT_GE(during.accept_failures, 1u);
  // Cooldown, not a level-triggered spin: a spinning loop would rack up
  // thousands of hits in 250ms; the pause keeps it to ~1 per 50ms window.
  EXPECT_LT(failpoint::Hits("serve.accept"), 64u);
  // Established connections keep being served throughout.
  EXPECT_TRUE(established->Ping().ok());

  // Fault clears: the listener re-arms after the cooldown and the backlog
  // connection finally gets accepted and served.
  failpoint::Disarm("serve.accept");
  EXPECT_TRUE(pending->Ping().ok());
}

TEST_F(FaultInjectionTest, ShortSendsStillDeliverCompleteReplies) {
  ServeHarness h("shortsend");
  ASSERT_TRUE(failpoint::Arm("serve.send", "shortwrite:0.2").ok());
  StatusOr<serve::Client> client =
      serve::Client::Connect(h.address, FastClientOptions());
  ASSERT_TRUE(client.ok());

  std::vector<Query> queries;
  for (int i = 0; i < 8; ++i) {
    Query q(2);
    q.SetRange(0, 0, 500'000);
    q.SetRange(1, 100'000 * i, 100'000 * i + 400'000);
    queries.push_back(std::move(q));
  }
  StatusOr<serve::BatchResultResponse> reply = client->RunBatch(queries);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->code, serve::WireCode::kOk);
  ASSERT_EQ(reply->results.size(), queries.size());
  EXPECT_GT(failpoint::Triggers("serve.send"), 0u);
  failpoint::DisarmAll();
  // Byte-identical to in-process execution despite the fragmented sends.
  const BatchResult direct = h.db->RunBatch(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(reply->results[i].count, direct.results[i].count);
  }
}

TEST_F(FaultInjectionTest, RecvFailureClosesTheConnectionAndCounts) {
  ServeHarness h("recverr");
  StatusOr<serve::Client> client =
      serve::Client::Connect(h.address, FastClientOptions());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());

  ASSERT_TRUE(failpoint::Arm("serve.recv", "err:ECONNRESET@once").ok());
  const Status pinged = client->Ping();
  ASSERT_FALSE(pinged.ok());
  // Closing a UDS with unread bytes in its buffer surfaces client-side
  // as either a clean EOF or ECONNRESET; both are typed, neither hangs.
  EXPECT_TRUE(pinged.message().find("closed") != std::string::npos ||
              pinged.message().find("reset") != std::string::npos)
      << pinged.message();
  EXPECT_EQ(h.server->counters().recv_errors, 1u);
  // The server survives: a fresh connection works.
  StatusOr<serve::Client> again =
      serve::Client::Connect(h.address, FastClientOptions());
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->Ping().ok());
}

TEST_F(FaultInjectionTest, MetricsListenerReadsGoThroughTheRecvSeam) {
  serve::ServerOptions sopts;
  sopts.metrics_addr = "127.0.0.1:0";
  ServeHarness h("httprecv", sopts);
  ASSERT_TRUE(failpoint::Arm("serve.recv", "err:ECONNRESET@once").ok());

  // A scrape whose read fails is closed unanswered, like a wire
  // connection: the metrics listener shares the one recv loop.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(h.server->metrics_port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(response, "");
  EXPECT_EQ(failpoint::Triggers("serve.recv"), 1u);
  EXPECT_EQ(h.server->counters().recv_errors, 1u);
  EXPECT_EQ(h.server->counters().metrics_scrapes, 0u);
}

TEST_F(FaultInjectionTest, HealthReportsReadinessAndPersistencePoison) {
  TempFile snap("fi_health.snap");
  ServeHarness h("health");
  ASSERT_TRUE(h.db->Save(snap.path()).ok());
  StatusOr<serve::Client> client =
      serve::Client::Connect(h.address, FastClientOptions());
  ASSERT_TRUE(client.ok());

  StatusOr<serve::HealthResponse> health = client->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(health->ready);
  EXPECT_FALSE(health->draining);
  EXPECT_FALSE(health->persist_poisoned);
  EXPECT_GE(health->connections_active, 1u);

  // A failed checkpoint degrades the health report without taking the
  // server down.
  ASSERT_TRUE(
      failpoint::Arm("persist.snapshot.write", "err:ENOSPC@once").ok());
  ASSERT_FALSE(h.db->Save(snap.path()).ok());
  health = client->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_TRUE(health->ready);
  EXPECT_TRUE(health->persist_poisoned);

  // Recovery un-poisons.
  ASSERT_TRUE(h.db->Save(snap.path()).ok());
  health = client->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_FALSE(health->persist_poisoned);
  EXPECT_GE(h.server->counters().health_checks, 3u);
}

// --- Client deadlines + retry -----------------------------------------------

TEST_F(FaultInjectionTest, RecvDeadlineFiresAgainstASilentServer) {
  // A listener that never accepts: connects land in the backlog and no
  // byte ever comes back. Without deadlines Ping would hang forever.
  const std::string path = UniqueSock("silent");
  const int listener = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(listener, 0);
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 8), 0);

  serve::ClientOptions copts;
  copts.connect_timeout_ms = 1'000;
  copts.recv_timeout_ms = 150;
  StatusOr<serve::Client> client =
      serve::Client::Connect("unix:" + path, copts);
  ASSERT_TRUE(client.ok());
  const auto start = std::chrono::steady_clock::now();
  const Status pinged = client->Ping();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(pinged.ok());
  EXPECT_EQ(pinged.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  ::close(listener);
  ::unlink(path.c_str());
}

TEST_F(FaultInjectionTest, ConnectRefusalIsUnavailableAndRetriedExactly) {
  // Nothing has ever listened on this path: every attempt is refused.
  serve::ClientOptions copts;
  copts.retry.max_attempts = 3;
  copts.retry.initial_backoff_ms = 1;
  copts.retry.max_backoff_ms = 4;
  const uint64_t before = failpoint::Hits("serve.client.connect");
  StatusOr<serve::Client> client = serve::Client::Connect(
      "unix:" + UniqueSock("refused"), copts);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(failpoint::Hits("serve.client.connect") - before, 3u);

  // A closed TCP port refuses too — same typed outcome.
  StatusOr<serve::Client> tcp = serve::Client::Connect("127.0.0.1:1", copts);
  ASSERT_FALSE(tcp.ok());
  EXPECT_EQ(tcp.status().code(), StatusCode::kUnavailable);
}

TEST_F(FaultInjectionTest, ConnectRetrySucceedsOnceTheRefusalClears) {
  ServeHarness h("retryconn");
  // First attempt is injected-refused; the retry connects for real.
  ASSERT_TRUE(
      failpoint::Arm("serve.client.connect", "err:ECONNREFUSED@once").ok());
  serve::ClientOptions copts = FastClientOptions();
  copts.retry.max_attempts = 3;
  copts.retry.initial_backoff_ms = 1;
  StatusOr<serve::Client> client = serve::Client::Connect(h.address, copts);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_EQ(failpoint::Triggers("serve.client.connect"), 1u);
}

TEST_F(FaultInjectionTest, OverloadShedsAreRetriedToSuccess) {
  serve::ServerOptions sopts;
  sopts.max_inflight_batches = 1;
  ServeHarness h("overload", sopts, 50'000);

  // Saturate the 1-slot queue with one big pipelined batch...
  StatusOr<serve::Client> hog =
      serve::Client::Connect(h.address, FastClientOptions());
  ASSERT_TRUE(hog.ok());
  std::vector<Query> heavy;
  for (int i = 0; i < 256; ++i) {
    Query q(2);
    q.SetRange(0, 0, 900'000);
    heavy.push_back(std::move(q));
  }
  ASSERT_TRUE(hog->SendRunBatch(1, heavy).ok());

  // ...then a competing client with retry enabled must eventually get a
  // real answer (first attempts may be shed kOverloaded).
  serve::ClientOptions copts = FastClientOptions();
  copts.retry.max_attempts = 50;
  copts.retry.initial_backoff_ms = 5;
  copts.retry.max_backoff_ms = 50;
  StatusOr<serve::Client> client = serve::Client::Connect(h.address, copts);
  ASSERT_TRUE(client.ok());
  Query q(2);
  q.SetRange(0, 0, 100'000);
  StatusOr<serve::BatchResultResponse> reply = client->RunBatch({&q, 1});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->code, serve::WireCode::kOk);
  ASSERT_EQ(reply->results.size(), 1u);

  StatusOr<serve::BatchResultResponse> hogged = hog->ReadBatchReply();
  ASSERT_TRUE(hogged.ok());
  EXPECT_EQ(hogged->code, serve::WireCode::kOk);
}

TEST_F(FaultInjectionTest, ClientSendEintrStormsAreAbsorbed) {
  ServeHarness h("clienteintr");
  ASSERT_TRUE(failpoint::Arm("serve.client.send", "eintr:4").ok());
  ASSERT_TRUE(failpoint::Arm("serve.client.recv", "eintr:4").ok());
  StatusOr<serve::Client> client =
      serve::Client::Connect(h.address, FastClientOptions());
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_GT(failpoint::Triggers("serve.client.send"), 0u);
}

// --- Catalog sweep ----------------------------------------------------------

TEST_F(FaultInjectionTest, EveryCatalogSiteArmsFiresAndDisarms) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  char byte = 'z';
  for (const char* site : kSiteCatalog) {
    SCOPED_TRACE(site);
    ASSERT_TRUE(failpoint::Arm(site, "err:EIO@once").ok());
    // The registry is shared by every wrapper; driving the site through
    // a scratch fd proves arm -> fire -> typed errno -> auto-disarm for
    // the whole catalog, independent of each site's subsystem test above.
    errno = 0;
    EXPECT_EQ(failpoint::InjectedWrite(site, fds[1], &byte, 1), -1);
    EXPECT_EQ(errno, EIO);
    EXPECT_EQ(failpoint::InjectedWrite(site, fds[1], &byte, 1), 1);
    EXPECT_GE(failpoint::Hits(site), 2u);
    EXPECT_GE(failpoint::Triggers(site), 1u);
  }
  const std::vector<std::string> sites = failpoint::Sites();
  for (const char* site : kSiteCatalog) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), std::string(site)),
              sites.end());
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace flood
