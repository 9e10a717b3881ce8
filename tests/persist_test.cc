// Persistence subsystem (src/persist): Save -> Open(path) round-trip on
// every registered index type (the PR acceptance invariant), snapshot
// corruption/truncation rejection, WAL replay with torn-tail truncation,
// group commit, the snapshot/WAL epoch pairing rules, and Compact() as the
// checkpoint/truncation point.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/index_registry.h"
#include "persist/snapshot.h"
#include "persist/wal.h"
#include "tests/test_util.h"

namespace flood {
namespace {

using testing::BruteForce;
using testing::DataShape;
using testing::MakeTable;
using testing::RandomQuery;
using testing::RowsOf;
using testing::TempFile;

/// Sorted multiset of collected row *values* (id spaces differ between a
/// live database and its restored twin; the logical rows must not).
std::vector<std::vector<Value>> CollectedTuples(Database& db,
                                                const Query& q) {
  const QueryResult r = db.Collect(q);
  std::vector<std::vector<Value>> tuples;
  tuples.reserve(r.rows.size());
  for (RowId row : r.rows) tuples.push_back(db.GetRow(row));
  std::sort(tuples.begin(), tuples.end());
  return tuples;
}

Workload SmallTrainingWorkload(const Table& table, uint64_t seed) {
  Workload w;
  for (uint64_t i = 0; i < 12; ++i) {
    Query q = RandomQuery(table, seed + i);
    if (i % 3 == 0) q.set_agg({AggSpec::Kind::kSum, 1});
    w.Add(q);
  }
  return w;
}

// Acceptance criterion: Save -> Open(path) -> identical query results
// (COUNT/SUM/Collect) vs the live database on every registered index type,
// with staged inserts AND tombstones in flight across the round trip.
TEST(PersistTest, SaveOpenRoundTripOnEveryIndex) {
  const Table base = MakeTable(DataShape::kClustered, 1200, 3, 81);
  const Table extra = MakeTable(DataShape::kUniform, 150, 3, 82);
  const std::vector<std::vector<Value>> extra_rows = RowsOf(extra);
  const Workload train = SmallTrainingWorkload(base, 8300);

  std::vector<Query> queries;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    Query q = RandomQuery(base, 8400 + seed * 5);
    if (seed % 3 == 1) q.set_agg({AggSpec::Kind::kSum, 2});
    queries.push_back(q);
  }

  for (const std::string& name : IndexRegistry::Global().Names()) {
    TempFile snap("roundtrip_" + name + ".snap");
    DatabaseOptions options;
    options.index_name = name;
    options.training_workload = train;
    StatusOr<Database> db = Database::Open(base, options);
    ASSERT_TRUE(db.ok()) << name << ": " << db.status().ToString();
    ASSERT_TRUE(db->InsertBatch(extra_rows).ok()) << name;
    // One base delete (tombstone) and one staged delete (erase).
    ASSERT_TRUE(db->Delete(db->GetRow(7)).ok()) << name;
    ASSERT_TRUE(db->Delete(extra_rows[3]).ok()) << name;

    ASSERT_TRUE(db->Save(snap.path()).ok()) << name;
    EXPECT_EQ(db->persist_epoch(), 1u) << name;
    EXPECT_EQ(db->snapshot_path(), snap.path()) << name;

    StatusOr<Database> restored = Database::Open(snap.path());
    ASSERT_TRUE(restored.ok()) << name << ": "
                               << restored.status().ToString();
    EXPECT_EQ(restored->index_name(), db->index_name()) << name;
    EXPECT_EQ(restored->num_rows(), db->num_rows()) << name;
    EXPECT_EQ(restored->base_rows(), db->base_rows()) << name;
    EXPECT_EQ(restored->delta_inserts(), db->delta_inserts()) << name;
    EXPECT_EQ(restored->delta_tombstones(), db->delta_tombstones()) << name;
    EXPECT_EQ(restored->persist_epoch(), 1u) << name;

    const BatchResult live = db->RunBatch(queries);
    const BatchResult snap_batch = restored->RunBatch(queries);
    ASSERT_TRUE(live.status.ok()) << name;
    ASSERT_TRUE(snap_batch.status.ok()) << name;
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(snap_batch.results[i].count, live.results[i].count)
          << name << " #" << i << " " << queries[i].ToString();
      EXPECT_EQ(snap_batch.results[i].sum, live.results[i].sum)
          << name << " #" << i;
    }
    const Query probe = RandomQuery(base, 8500);
    EXPECT_EQ(CollectedTuples(*restored, probe), CollectedTuples(*db, probe))
        << name;
  }
}

TEST(PersistTest, SnapshotOpenPinsLearnedLayout) {
  const Table base = MakeTable(DataShape::kSkewed, 2000, 3, 83);
  TempFile snap("layout.snap");
  DatabaseOptions options;
  options.index_name = "flood";
  options.training_workload = SmallTrainingWorkload(base, 8600);
  StatusOr<Database> db = Database::Open(base, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Save(snap.path()).ok());

  // No training workload passed on restore: with the layout pinned there
  // is nothing to learn, and the physical structure must come back
  // identical (same grid, same cell count).
  StatusOr<Database> restored = Database::Open(snap.path());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->Describe(), db->Describe());
  EXPECT_EQ(restored->index().SerializedLayout(),
            db->index().SerializedLayout());
  EXPECT_FALSE(restored->index().SerializedLayout().empty());
  EXPECT_EQ(restored->IndexProperties(), db->IndexProperties());
  // The workload traveled with the snapshot, so SUM side columns and
  // future compactions keep their training context.
  ASSERT_TRUE(restored->Compact().ok());
  EXPECT_EQ(restored->num_rows(), base.num_rows());
}

// The snapshot's layout is pinned for the restore build only: a restored
// database must stay free to RElearn when the workload shifts, exactly
// like a cold-opened one.
TEST(PersistTest, RestoredDatabaseRelearnsLayoutOnRetrain) {
  const Table base = MakeTable(DataShape::kUniform, 4000, 3, 95);
  Workload train;  // Strongly favors dimension 0.
  for (Value lo = 0; lo < 900'000; lo += 60'000) {
    train.Add(QueryBuilder(3).Range(0, lo, lo + 20'000).Count().Build());
  }
  TempFile snap("relearn.snap");
  DatabaseOptions options;
  options.index_name = "flood";
  options.training_workload = train;
  StatusOr<Database> db = Database::Open(base, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Save(snap.path()).ok());

  StatusOr<Database> restored = Database::Open(snap.path());
  ASSERT_TRUE(restored.ok());
  const std::string pinned = restored->index().SerializedLayout();
  EXPECT_EQ(pinned, db->index().SerializedLayout());

  Workload shifted;  // Now everything filters dimension 2.
  for (Value lo = 0; lo < 900'000; lo += 60'000) {
    shifted.Add(QueryBuilder(3).Range(2, lo, lo + 20'000).Count().Build());
  }
  ASSERT_TRUE(restored->Retrain(shifted).ok());
  EXPECT_NE(restored->index().SerializedLayout(), pinned)
      << "restore froze the snapshot layout into future rebuilds";
}

TEST(PersistTest, CorruptAndTruncatedSnapshotsAreRejected) {
  const Table base = MakeTable(DataShape::kUniform, 600, 2, 84);
  TempFile snap("corrupt.snap");
  StatusOr<Database> db =
      Database::Open(base, DatabaseOptions{.index_name = "flood"});
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Insert({1, 2}).ok());
  ASSERT_TRUE(db->Save(snap.path()).ok());

  std::string good;
  ASSERT_TRUE(persist::ReadFileToString(snap.path(), &good).ok());
  ASSERT_TRUE(persist::ReadSnapshot(snap.path()).ok());

  TempFile bad("corrupt_mut.snap");
  // Single-byte corruption anywhere (header, section table, payloads) must
  // be caught by a checksum or a structural check — never crash or load.
  for (size_t pos = 0; pos < good.size(); pos += 131) {
    std::string mutated = good;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5A);
    ASSERT_TRUE(persist::WriteFileAtomic(bad.path(), mutated).ok());
    EXPECT_FALSE(persist::ReadSnapshot(bad.path()).ok()) << "pos " << pos;
  }
  // Truncation at any prefix must be rejected too.
  for (size_t len : {size_t{0}, size_t{7}, size_t{23}, good.size() / 4,
                     good.size() / 2, good.size() - 1}) {
    ASSERT_TRUE(
        persist::WriteFileAtomic(bad.path(), good.substr(0, len)).ok());
    EXPECT_FALSE(persist::ReadSnapshot(bad.path()).ok()) << "len " << len;
  }
  EXPECT_EQ(persist::ReadSnapshot(bad.path() + ".does_not_exist")
                .status()
                .code(),
            StatusCode::kNotFound);

  // A version-1 file (it carried a sample size and seed, index properties
  // and a dictionaries section) is refused by its version, even with a
  // valid header checksum.
  std::string v1 = good;
  const uint32_t kVersionOffset = 8;
  ASSERT_EQ(static_cast<uint8_t>(v1[kVersionOffset]), 2u);
  v1[kVersionOffset] = 1;
  const size_t header_bytes = 8 + 4 + 8 + 4 + 4 * 24;  // Four sections.
  const uint32_t crc = Crc32(v1.data(), header_bytes);
  for (size_t i = 0; i < 4; ++i) {
    v1[header_bytes + i] = static_cast<char>(crc >> (8 * i));
  }
  ASSERT_TRUE(persist::WriteFileAtomic(bad.path(), v1).ok());
  const StatusOr<persist::SnapshotData> old = persist::ReadSnapshot(bad.path());
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(old.status().message().find("unsupported version 1"),
            std::string::npos)
      << old.status().ToString();
}

// --- WAL -------------------------------------------------------------------

TEST(PersistTest, WalReplayRestoresWritesOnFreshTableReopen) {
  const Table base = MakeTable(DataShape::kUniform, 800, 2, 86);
  TempFile wal("replay.wal");
  DatabaseOptions options;
  options.index_name = "kdtree";
  options.wal_path = wal.path();

  const std::vector<Value> victim = [&] {
    StatusOr<Database> db = Database::Open(base, options);
    FLOOD_CHECK(db.ok());
    FLOOD_CHECK(db->wal_attached());
    FLOOD_CHECK(db->Insert({11, 22}).ok());
    FLOOD_CHECK(db->Insert({33, 44}).ok());
    FLOOD_CHECK(db->Insert({33, 44}).ok());
    std::vector<Value> v = db->GetRow(0);
    FLOOD_CHECK(db->Delete(v).ok());       // Tombstones base rows.
    FLOOD_CHECK(db->Delete({33, 44}).ok());  // Erases two staged inserts.
    FLOOD_CHECK(db->wal_records_committed() == 5);
    return v;
  }();  // Database closed; only the WAL survives.

  StatusOr<Database> db = Database::Open(base, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db->delta_inserts(), 1u);  // {11, 22}.
  EXPECT_GE(db->delta_tombstones(), 1u);
  Query eq(2);
  eq.SetEquals(0, 11);
  eq.SetEquals(1, 22);
  EXPECT_EQ(db->Run(eq).count, 1u);
  Query gone(2);
  gone.SetEquals(0, victim[0]);
  gone.SetEquals(1, victim[1]);
  EXPECT_EQ(db->Run(gone).count, 0u);
  EXPECT_EQ(db->Run(QueryBuilder(2).Count().Build()).count, db->num_rows());
}

TEST(PersistTest, WalTornTailIsTruncatedAndAppendsContinue) {
  const Table base = MakeTable(DataShape::kUniform, 400, 2, 87);
  TempFile wal("torn.wal");
  DatabaseOptions options;
  options.index_name = "full_scan";
  options.wal_path = wal.path();
  {
    StatusOr<Database> db = Database::Open(base, options);
    ASSERT_TRUE(db.ok());
    for (Value i = 0; i < 5; ++i) ASSERT_TRUE(db->Insert({i, i}).ok());
  }
  // Simulate a crash mid-append: garbage after the last intact record.
  std::string bytes;
  ASSERT_TRUE(persist::ReadFileToString(wal.path(), &bytes).ok());
  const size_t intact = bytes.size();
  {
    std::FILE* f = std::fopen(wal.path().c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "\x13\x37partial-record";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  {
    StatusOr<persist::WalContents> contents = persist::ReadWal(wal.path());
    ASSERT_TRUE(contents.ok());
    EXPECT_TRUE(contents->torn_tail);
    EXPECT_EQ(contents->valid_bytes, intact);
    EXPECT_EQ(contents->records.size(), 5u);
  }
  {
    StatusOr<Database> db = Database::Open(base, options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(db->delta_inserts(), 5u);  // Torn bytes were not applied.
    ASSERT_TRUE(db->Insert({100, 100}).ok());  // Appends after the repair.
  }
  StatusOr<Database> db = Database::Open(base, options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db->delta_inserts(), 6u);

  // A tail cut *inside* an intact record drops exactly that record.
  ASSERT_TRUE(persist::ReadFileToString(wal.path(), &bytes).ok());
  ASSERT_TRUE(
      persist::WriteFileAtomic(wal.path(), bytes.substr(0, bytes.size() - 3))
          .ok());
  StatusOr<Database> cut = Database::Open(base, options);
  ASSERT_TRUE(cut.ok());
  EXPECT_EQ(cut->delta_inserts(), 5u);
}

TEST(PersistTest, WalEpochPairingRules) {
  const Table base = MakeTable(DataShape::kUniform, 500, 2, 88);
  TempFile snap("epoch.snap");
  TempFile wal("epoch.wal");
  DatabaseOptions options;
  options.index_name = "full_scan";
  options.wal_path = wal.path();
  {
    StatusOr<Database> db = Database::Open(base, options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE(db->Insert({1, 1}).ok());
    ASSERT_TRUE(db->Save(snap.path()).ok());  // Epoch 1; WAL truncated.
    ASSERT_TRUE(db->Insert({2, 2}).ok());     // Lives only in the WAL.
  }
  // Snapshot (epoch 1) + matching WAL: both inserts visible.
  {
    StatusOr<Database> db = Database::Open(snap.path(), options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(db->delta_inserts(), 2u);
    EXPECT_EQ(db->persist_epoch(), 1u);
  }
  // A fresh-table open (epoch 0) must refuse the epoch-1 WAL.
  StatusOr<Database> stale = Database::Open(base, options);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);

  // Crash window between snapshot write and WAL truncation: checkpoint to
  // epoch 2, then put the epoch-1 log (still holding {2,2}) back on disk.
  std::string old_wal;
  ASSERT_TRUE(persist::ReadFileToString(wal.path(), &old_wal).ok());
  {
    StatusOr<Database> db = Database::Open(snap.path(), options);
    ASSERT_TRUE(db.ok());
    EXPECT_EQ(db->delta_inserts(), 2u);
    ASSERT_TRUE(db->Save(snap.path()).ok());  // Epoch 2; WAL truncated.
  }
  ASSERT_TRUE(persist::WriteFileAtomic(wal.path(), old_wal).ok());
  ASSERT_EQ(persist::ReadWal(wal.path())->epoch, 1u);

  StatusOr<Database> db = Database::Open(snap.path(), options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  // The epoch-1 records are already folded into the epoch-2 snapshot, so
  // the stale log is discarded, not double-applied.
  EXPECT_EQ(db->delta_inserts(), 2u);
  EXPECT_EQ(db->Run(QueryBuilder(2).Count().Build()).count,
            base.num_rows() + 2);
  EXPECT_EQ(persist::ReadWal(wal.path())->epoch, 2u);
  EXPECT_TRUE(persist::ReadWal(wal.path())->records.empty());
}

TEST(PersistTest, CompactIsTheWalTruncationPoint) {
  const Table base = MakeTable(DataShape::kUniform, 700, 2, 89);
  TempFile snap("compact.snap");
  TempFile wal("compact.wal");
  DatabaseOptions options;
  options.index_name = "flood";
  options.wal_path = wal.path();
  StatusOr<Database> db = Database::Open(base, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Save(snap.path()).ok());
  for (Value i = 0; i < 20; ++i) ASSERT_TRUE(db->Insert({i, i * 3}).ok());
  ASSERT_GT(persist::ReadWal(wal.path())->records.size(), 0u);

  ASSERT_TRUE(db->Compact().ok());
  EXPECT_EQ(db->pending_writes(), 0u);
  EXPECT_EQ(db->base_rows(), base.num_rows() + 20);
  // Snapshot-then-truncate: the WAL is empty at the new epoch, and the
  // refreshed snapshot alone reproduces the compacted state.
  EXPECT_EQ(db->persist_epoch(), 2u);
  EXPECT_TRUE(persist::ReadWal(wal.path())->records.empty());
  EXPECT_EQ(persist::ReadWal(wal.path())->epoch, 2u);

  StatusOr<Database> restored = Database::Open(snap.path(), options);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_rows(), base.num_rows() + 20);
  EXPECT_EQ(restored->pending_writes(), 0u);
  const Query all = QueryBuilder(2).Count().Build();
  EXPECT_EQ(restored->Run(all).count, db->Run(all).count);
}

TEST(PersistTest, FailedSnapshotLosesNothing) {
  const Table base = MakeTable(DataShape::kUniform, 300, 2, 90);
  TempFile wal("failedsnap.wal");
  DatabaseOptions options;
  options.index_name = "full_scan";
  options.wal_path = wal.path();
  StatusOr<Database> db = Database::Open(base, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(db->Insert({5, 6}).ok());

  // Unwritable target: Save must fail without touching state or the WAL.
  const std::string bogus =
      ::testing::TempDir() + "flood_no_such_dir/never.snap";
  EXPECT_FALSE(db->Save(bogus).ok());
  EXPECT_EQ(db->persist_epoch(), 0u);
  EXPECT_EQ(db->snapshot_path(), "");
  EXPECT_EQ(db->delta_inserts(), 1u);
  EXPECT_EQ(persist::ReadWal(wal.path())->records.size(), 1u);

  // Compaction without a snapshot path keeps the WAL too (the log still
  // replays the same logical writes over the caller's original table).
  ASSERT_TRUE(db->Compact().ok());
  EXPECT_EQ(persist::ReadWal(wal.path())->records.size(), 1u);
  StatusOr<Database> reopened = Database::Open(base, options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->num_rows(), base.num_rows() + 1);
}

TEST(PersistTest, InsertBatchGroupCommitsOneBatch) {
  const Table base = MakeTable(DataShape::kUniform, 300, 3, 91);
  TempFile wal("group.wal");
  DatabaseOptions options;
  options.index_name = "full_scan";
  options.wal_path = wal.path();
  options.durability = Durability::kSync;
  StatusOr<Database> db = Database::Open(base, options);
  ASSERT_TRUE(db.ok());

  const Table extra = MakeTable(DataShape::kUniform, 64, 3, 92);
  ASSERT_TRUE(db->InsertBatch(RowsOf(extra)).ok());
  EXPECT_EQ(db->wal_records_committed(), 64u);
  StatusOr<persist::WalContents> contents = persist::ReadWal(wal.path());
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->records.size(), 64u);
  EXPECT_FALSE(contents->torn_tail);
  for (const persist::WalRecord& rec : contents->records) {
    EXPECT_EQ(rec.type, persist::WalRecordType::kInsert);
    EXPECT_EQ(rec.values.size(), 3u);
  }
}

}  // namespace
}  // namespace flood
