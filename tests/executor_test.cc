#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "api/index_registry.h"
#include "core/flood_index.h"
#include "query/executor.h"
#include "tests/test_util.h"

namespace flood {
namespace {

std::unique_ptr<MultiDimIndex> MakeFullScan() {
  StatusOr<std::unique_ptr<MultiDimIndex>> index =
      IndexRegistry::Global().Create("full_scan");
  EXPECT_TRUE(index.ok());
  return std::move(*index);
}

TEST(ExecutorTest, CountQuery) {
  const Table t = testing::MakeTable(testing::DataShape::kUniform, 1000, 2,
                                     3);
  std::unique_ptr<MultiDimIndex> index = MakeFullScan();
  BuildContext ctx;
  ASSERT_TRUE(index->Build(t, ctx).ok());
  Query q = QueryBuilder(2).Range(0, 0, 500'000).Count().Build();
  const AggResult r = ExecuteAggregate(*index, q, nullptr);
  EXPECT_EQ(r.count, testing::BruteForce(t, q, 0).count);
}

TEST(ExecutorTest, SumQueryWithAndWithoutPrefixSums) {
  const Table t = testing::MakeTable(testing::DataShape::kUniform, 5000, 3,
                                     4);
  Query q = QueryBuilder(3).Range(0, 100'000, 800'000).Sum(1).Build();

  // Workload advertises the SUM dim so prefix sums get built.
  Workload w;
  w.Add(q);
  BuildContext ctx;
  ctx.workload = &w;

  FloodIndex::Options o;
  o.layout = GridLayout::Default(3, 64);
  FloodIndex with_sums(o);
  ASSERT_TRUE(with_sums.Build(t, ctx).ok());
  ASSERT_NE(with_sums.prefix_sums(1), nullptr);

  BuildContext ctx_no;
  FloodIndex without(o);
  ASSERT_TRUE(without.Build(t, ctx_no).ok());
  EXPECT_EQ(without.prefix_sums(1), nullptr);

  const auto oracle = testing::BruteForce(t, q, 1);
  EXPECT_EQ(ExecuteAggregate(with_sums, q, nullptr).sum, oracle.sum);
  EXPECT_EQ(ExecuteAggregate(without, q, nullptr).sum, oracle.sum);
}

TEST(ExecutorTest, StatsTotalsAccumulate) {
  const Table t = testing::MakeTable(testing::DataShape::kUniform, 2000, 2,
                                     5);
  std::unique_ptr<MultiDimIndex> index = MakeFullScan();
  BuildContext ctx;
  ASSERT_TRUE(index->Build(t, ctx).ok());
  QueryStats stats;
  Query q = QueryBuilder(2).Range(0, 0, 100'000).Build();
  (void)ExecuteAggregate(*index, q, &stats);
  (void)ExecuteAggregate(*index, q, &stats);
  EXPECT_EQ(stats.points_scanned, 4000u);  // Accumulated across queries.
  EXPECT_GT(stats.total_ns, 0);
  EXPECT_GE(stats.ScanOverhead(), 1.0);
}

// The shim short-circuits empty queries without dispatching: no counters
// move, even on a full scan.
TEST(ExecutorTest, EmptyQueryShortCircuits) {
  const Table t = testing::MakeTable(testing::DataShape::kUniform, 2000, 2,
                                     6);
  std::unique_ptr<MultiDimIndex> index = MakeFullScan();
  BuildContext ctx;
  ASSERT_TRUE(index->Build(t, ctx).ok());
  Query q(2);
  q.SetRange(0, 100, 50);  // Inverted: empty.
  QueryStats stats;
  const AggResult r = ExecuteAggregate(*index, q, &stats);
  EXPECT_EQ(r.count, 0u);
  EXPECT_EQ(stats.points_scanned, 0u);
  EXPECT_EQ(stats.cells_visited, 0u);
  EXPECT_EQ(stats.total_ns, 0);
}

// The MultiDimIndex threading contract: Execute is const and re-entrant,
// so one built index answers concurrent queries correctly with no
// synchronization. Runs Flood (learned layout + cell models, the most
// stateful query path) under maximal thread overlap; TSan checks the rest.
TEST(ExecutorTest, ConcurrentExecuteOnOneIndexIsReentrant) {
  const Table t = testing::MakeTable(testing::DataShape::kClustered, 4000, 3,
                                     7);
  FloodIndex::Options o;
  o.layout = GridLayout::Default(3, 128);
  FloodIndex index(o);
  BuildContext ctx;
  ASSERT_TRUE(index.Build(t, ctx).ok());

  std::vector<Query> queries;
  std::vector<uint64_t> expected;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    queries.push_back(testing::RandomQuery(t, 1000 + seed));
    expected.push_back(testing::BruteForce(t, queries.back(), 0).count);
  }

  std::vector<std::vector<uint64_t>> got(4);
  std::vector<std::thread> workers;
  for (size_t shard = 0; shard < 4; ++shard) {
    workers.emplace_back([&, shard] {
      // Every worker runs the *same* queries against the shared index.
      for (const Query& q : queries) {
        QueryStats stats;
        got[shard].push_back(ExecuteAggregate(index, q, &stats).count);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (size_t shard = 0; shard < 4; ++shard) {
    EXPECT_EQ(got[shard], expected) << "worker " << shard;
  }
}

}  // namespace
}  // namespace flood
