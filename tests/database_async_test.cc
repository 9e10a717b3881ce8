// Database::RunBatchAsync: the callback-based batch API the serving tier
// executes on. Checks result parity with synchronous RunBatch, completion
// on the pool (not the caller), the single-threaded synchronous fallback,
// the dispatch rule that keeps a one-shard synchronous RunBatch and a
// predicted-cheap async batch on the calling thread (and sends batches
// back to the pool when the query mix turns expensive), and — the
// load-bearing part — many async batches in flight concurrently with
// Insert/Delete/Compact traffic through the same reader-writer seam.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "tests/test_util.h"

namespace flood {
namespace {

using testing::BruteForce;
using testing::DataShape;
using testing::MakeTable;
using testing::OracleResult;
using testing::AbsentKeyQueries;
using testing::RandomQuery;

Database OpenDb(const Table& table, size_t threads,
                const std::string& index = "kdtree") {
  DatabaseOptions options;
  options.index_name = index;  // kdtree: cheap to build, delta-aware.
  options.num_threads = threads;
  StatusOr<Database> db = Database::Open(table, std::move(options));
  FLOOD_CHECK(db.ok());
  return std::move(*db);
}

std::vector<Query> MakeQueries(const Table& table, size_t n,
                               uint64_t seed) {
  std::vector<Query> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Query q = RandomQuery(table, seed + i);
    if (i % 3 == 0) q.set_agg({AggSpec::Kind::kSum, i % table.num_dims()});
    queries.push_back(std::move(q));
  }
  return queries;
}

/// Submits through the callback flavor and reports which thread ran the
/// callback and whether it ran before RunBatchAsync returned. Only an
/// inline run guarantees `before_return`; a pool worker can also finish
/// before the caller gets to mark the return.
struct Dispatch {
  BatchResult batch;
  std::thread::id completer;
  bool before_return = false;
};
Dispatch SubmitAndWait(Database& db, const std::vector<Query>& queries) {
  std::atomic<bool> returned{false};
  std::promise<Dispatch> done;
  db.RunBatchAsync(queries, [&](BatchResult batch) {
    done.set_value({std::move(batch), std::this_thread::get_id(),
                    !returned.load()});
  });
  returned.store(true);
  return done.get_future().get();
}

/// Submits through RunBatchAsync; the callback fulfils the returned
/// future, so several batches can be in flight at once.
std::future<BatchResult> Submit(Database& db,
                                const std::vector<Query>& queries) {
  auto done = std::make_shared<std::promise<BatchResult>>();
  std::future<BatchResult> result = done->get_future();
  db.RunBatchAsync(queries, [done](BatchResult batch) {
    done->set_value(std::move(batch));
  });
  return result;
}

TEST(DatabaseAsyncTest, FutureMatchesSynchronousRunBatch) {
  const Table table = MakeTable(DataShape::kUniform, 20'000, 3, 31);
  Database db = OpenDb(table, 4);
  const std::vector<Query> queries = MakeQueries(table, 64, 100);

  const BatchResult sync = db.RunBatch(queries);
  const BatchResult async = Submit(db, queries).get();

  ASSERT_TRUE(sync.status.ok());
  ASSERT_TRUE(async.status.ok());
  ASSERT_EQ(async.results.size(), sync.results.size());
  for (size_t i = 0; i < sync.results.size(); ++i) {
    EXPECT_EQ(async.results[i].count, sync.results[i].count) << i;
    EXPECT_EQ(async.results[i].sum, sync.results[i].sum) << i;
    EXPECT_EQ(async.results[i].kind, sync.results[i].kind) << i;
  }
  EXPECT_EQ(async.empty_skipped, sync.empty_skipped);
}

TEST(DatabaseAsyncTest, SingleThreadedDatabaseCompletesSynchronously) {
  const Table table = MakeTable(DataShape::kUniform, 5'000, 3, 32);
  Database db = OpenDb(table, 1);  // No pool at all.
  const std::vector<Query> queries = MakeQueries(table, 16, 200);

  // The contract: with num_threads == 1 the callback runs on the calling
  // thread before RunBatchAsync returns.
  const Dispatch d = SubmitAndWait(db, queries);
  EXPECT_TRUE(d.before_return);
  EXPECT_EQ(d.completer, std::this_thread::get_id());
  ASSERT_TRUE(d.batch.status.ok());
  EXPECT_EQ(d.batch.results.size(), queries.size());
}

TEST(DatabaseAsyncTest, CallbackFiresOffCallerThreadExactlyOnce) {
  const Table table = MakeTable(DataShape::kClustered, 10'000, 3, 33);
  Database db = OpenDb(table, 4);
  const std::vector<Query> queries = MakeQueries(table, 32, 300);

  std::promise<void> done;
  std::atomic<int> calls{0};
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id completer;
  db.RunBatchAsync(queries, [&](BatchResult batch) {
    EXPECT_TRUE(batch.status.ok());
    completer = std::this_thread::get_id();
    if (calls.fetch_add(1) == 0) done.set_value();
  });
  done.get_future().wait();
  EXPECT_EQ(calls.load(), 1);
  EXPECT_NE(completer, caller);
}

TEST(DatabaseAsyncTest, SingleShardRunBatchRunsOnTheCallingThread) {
  // The inline rule: a synchronous batch that carves into one shard runs
  // on the calling thread even though the database has a pool. The
  // slow-query sink fires on the thread that executed the query.
  const Table table = MakeTable(DataShape::kUniform, 5'000, 3, 38);
  std::mutex mu;
  std::vector<std::thread::id> executors;
  DatabaseOptions options;
  options.index_name = "kdtree";
  options.num_threads = 2;
  options.slow_query_ns = 1;
  options.slow_query_log = [&mu, &executors](const std::string&) {
    std::lock_guard<std::mutex> lock(mu);
    executors.push_back(std::this_thread::get_id());
  };
  StatusOr<Database> db = Database::Open(table, std::move(options));
  ASSERT_TRUE(db.ok());

  Query all(3);  // Non-empty, so it executes and trips the 1 ns threshold.
  const BatchResult batch = db->RunBatch(std::vector<Query>{all});
  ASSERT_TRUE(batch.status.ok());
  ASSERT_EQ(batch.results.size(), 1u);
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(executors.size(), 1u);
  EXPECT_EQ(executors[0], std::this_thread::get_id());
}

TEST(DatabaseAsyncTest, CheapAsyncBatchRunsOnTheCallingThread) {
  // The dispatch rule: once the database has measured a batch, an async
  // batch predicted below kInlineBatchNs (size x moving mean) runs on the
  // caller, so the callback fires before RunBatchAsync returns. The mean
  // is injected before each batch, so the rule is checked on both sides
  // of the constant whatever a query costs on this host.
  const Table table = MakeTable(DataShape::kUniform, 2'000, 3, 39);
  Database db = OpenDb(table, 2, "clustered");
  const std::vector<Query> one = AbsentKeyQueries(table, 1);
  const std::vector<Query> two = AbsentKeyQueries(table, 2);
  const auto submit = [&](int64_t mean_ns, const std::vector<Query>& qs) {
    db.SetMeanQueryNsForTest(mean_ns);
    Dispatch d = SubmitAndWait(db, qs);
    EXPECT_TRUE(d.batch.status.ok());
    return d;
  };
  const std::thread::id caller = std::this_thread::get_id();

  // No mean yet: every batch is predicted expensive.
  EXPECT_NE(submit(0, one).completer, caller);
  EXPECT_EQ(db.batches_inline(), 0u);

  // One query predicted just under the constant: inline.
  const Dispatch hot = submit(Database::kInlineBatchNs - 1, one);
  EXPECT_EQ(hot.completer, caller);
  EXPECT_TRUE(hot.before_return);
  EXPECT_EQ(db.batches_inline(), 1u);
  ASSERT_EQ(hot.batch.results.size(), 1u);
  EXPECT_EQ(hot.batch.results[0].count, 0u);
  EXPECT_FALSE(hot.batch.results[0].skipped_empty);

  // At the constant, and two queries whose sum passes it: the pool.
  EXPECT_NE(submit(Database::kInlineBatchNs, one).completer, caller);
  EXPECT_NE(submit(Database::kInlineBatchNs / 2 + 1, two).completer, caller);
  EXPECT_EQ(db.batches_inline(), 1u);
  // Two queries whose sum stays under it: inline again.
  EXPECT_EQ(submit(Database::kInlineBatchNs / 2 - 1, two).completer, caller);
  EXPECT_EQ(db.batches_inline(), 2u);
}

TEST(DatabaseAsyncTest, ExpensiveMixReturnsToThePoolAfterOneBatch) {
  // Drift: the moving mean folds each batch in with weight 1/8. After a
  // cheap mix, the first expensive batch may still run inline (the mean
  // is the cheap mix's). Once it is folded the mean is at least 1/8 of its
  // per-query cost, so the next batch of the same size is predicted at
  // least 1/8 of its total, which this test makes >= kInlineBatchNs. From
  // the second expensive batch on, every batch goes to the pool.
  const Table table = MakeTable(DataShape::kUniform, 50'000, 3, 40);
  Database db = OpenDb(table, 2, "clustered");
  const std::vector<Query> cheap = AbsentKeyQueries(table, 1);
  Query all(3);  // Full range: SUM reads every row.
  all.set_agg({AggSpec::Kind::kSum, 1});
  const std::vector<Query> expensive(16, all);

  const std::vector<Query> warm_up = AbsentKeyQueries(table, 1'024);
  ASSERT_TRUE(SubmitAndWait(db, warm_up).batch.status.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(SubmitAndWait(db, cheap).batch.status.ok());
  }
#ifdef NDEBUG
  // The cheap mix runs inline: at least its first batch, predicted at
  // exactly the warm-up's mean.
  EXPECT_GE(db.batches_inline(), 1u);
#endif
  const Dispatch first = SubmitAndWait(db, expensive);
  ASSERT_TRUE(first.batch.status.ok());
  ASSERT_GE(first.batch.stats.total_ns, 8 * Database::kInlineBatchNs);

  for (int i = 0; i < 3; ++i) {
    const uint64_t inline_before = db.batches_inline();
    const Dispatch next = SubmitAndWait(db, expensive);
    ASSERT_TRUE(next.batch.status.ok());
    EXPECT_NE(next.completer, std::this_thread::get_id()) << "batch " << i;
    EXPECT_EQ(db.batches_inline(), inline_before) << "batch " << i;
    EXPECT_EQ(next.batch.results[0].sum, first.batch.results[0].sum);
  }
}

TEST(DatabaseAsyncTest, ValidationFailureCompletesWithoutExecuting) {
  const Table table = MakeTable(DataShape::kUniform, 1'000, 3, 34);
  Database db = OpenDb(table, 4);
  std::vector<Query> queries = {Query(2)};  // Arity mismatch: 2 != 3.

  const BatchResult batch = Submit(db, queries).get();
  EXPECT_FALSE(batch.status.ok());
  EXPECT_TRUE(batch.results.empty());
}

TEST(DatabaseAsyncTest, ManyConcurrentAsyncBatchesMatchOracle) {
  const Table table = MakeTable(DataShape::kSkewed, 15'000, 3, 35);
  Database db = OpenDb(table, 4);

  constexpr size_t kBatches = 24;
  constexpr size_t kPerBatch = 20;
  std::vector<std::vector<Query>> batches;
  std::vector<std::future<BatchResult>> futures;
  for (size_t b = 0; b < kBatches; ++b) {
    batches.push_back(MakeQueries(table, kPerBatch, 1000 + b * 97));
  }
  for (size_t b = 0; b < kBatches; ++b) {
    futures.push_back(Submit(db, batches[b]));
  }
  for (size_t b = 0; b < kBatches; ++b) {
    const BatchResult batch = futures[b].get();
    ASSERT_TRUE(batch.status.ok());
    ASSERT_EQ(batch.results.size(), kPerBatch);
    for (size_t i = 0; i < kPerBatch; ++i) {
      const size_t sum_dim = batches[b][i].agg().kind == AggSpec::Kind::kSum
                                 ? batches[b][i].agg().dim
                                 : 0;
      const OracleResult oracle =
          BruteForce(table, batches[b][i], sum_dim);
      EXPECT_EQ(batch.results[i].count, oracle.count)
          << "batch " << b << " query " << i;
      if (batches[b][i].agg().kind == AggSpec::Kind::kSum) {
        EXPECT_EQ(batch.results[i].sum, oracle.sum)
            << "batch " << b << " query " << i;
      }
    }
  }
}

TEST(DatabaseAsyncTest, AsyncBatchesInterleavedWithWritesAndCompaction) {
  // The serving-tier scenario: async read batches racing Insert/Delete and
  // explicit Compact through the shared_mutex seam. Results must always be
  // internally consistent (a batch sees some prefix of the writes), and
  // the row count at quiescence must be exact.
  const Table table = MakeTable(DataShape::kUniform, 12'000, 3, 36);
  Database db = OpenDb(table, 4);
  const size_t base_rows = db.num_rows();

  // A query that matches every row, twice per batch: any torn read
  // (different snapshots inside ONE batch's shard pass) shows up as two
  // different counts for the same in-flight batch... which is legal for
  // *separate* queries in a batch, so assert monotonicity instead: counts
  // never decrease (inserts only, no deletes yet) across submission order.
  Query all(3);
  std::vector<Query> probe = {all, all};

  constexpr size_t kInserts = 400;
  std::atomic<bool> writer_done{false};
  std::thread writer([&] {
    for (size_t i = 0; i < kInserts; ++i) {
      const Value v = static_cast<Value>(2'000'000 + i);
      ASSERT_TRUE(db.Insert({v, v, v}).ok());
      if (i == kInserts / 2) {
        ASSERT_TRUE(db.Compact().ok());  // Mid-stream retrain.
      }
    }
    writer_done.store(true);
  });

  uint64_t last_count = 0;
  while (!writer_done.load()) {
    const BatchResult batch = Submit(db, probe).get();
    ASSERT_TRUE(batch.status.ok());
    ASSERT_EQ(batch.results.size(), 2u);
    // Each query individually sees >= what any earlier batch saw.
    for (const QueryResult& r : batch.results) {
      EXPECT_GE(r.count, last_count);
      EXPECT_GE(r.count, static_cast<uint64_t>(base_rows));
      EXPECT_LE(r.count, static_cast<uint64_t>(base_rows + kInserts));
    }
    last_count = std::max(last_count, batch.results[1].count);
  }
  writer.join();

  // Quiescent: the final async batch must see every insert, and a final
  // compaction must not change the answer.
  const BatchResult final_batch = Submit(db, probe).get();
  ASSERT_TRUE(final_batch.status.ok());
  EXPECT_EQ(final_batch.results[0].count, base_rows + kInserts);
  ASSERT_TRUE(db.Compact().ok());
  const BatchResult compacted = Submit(db, probe).get();
  EXPECT_EQ(compacted.results[0].count, base_rows + kInserts);
}

TEST(DatabaseAsyncTest, AsyncBatchesInterleavedWithDeletes) {
  const size_t n = 8'000;
  const Table table = MakeTable(DataShape::kDuplicates, n, 2, 37);
  Database db = OpenDb(table, 4);

  Query all(2);
  std::vector<Query> probe = {all};

  // Delete rows by key from one thread while async batches run: counts
  // must be monotonically non-increasing and exact at quiescence.
  const std::vector<std::vector<Value>> rows = testing::RowsOf(table);
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> deleted_total{0};
  std::thread writer([&] {
    for (size_t i = 0; i < 50; ++i) {
      const StatusOr<size_t> deleted = db.Delete(rows[i * 37 % n]);
      ASSERT_TRUE(deleted.ok());
      deleted_total.fetch_add(*deleted);
    }
    writer_done.store(true);
  });

  uint64_t last = n;
  while (!writer_done.load()) {
    const BatchResult batch = Submit(db, probe).get();
    ASSERT_TRUE(batch.status.ok());
    EXPECT_LE(batch.results[0].count, last);
    last = batch.results[0].count;
  }
  writer.join();

  const BatchResult final_batch = Submit(db, probe).get();
  EXPECT_EQ(final_batch.results[0].count, n - deleted_total.load());
}

}  // namespace
}  // namespace flood
