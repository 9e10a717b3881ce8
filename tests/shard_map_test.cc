// ShardMap unit tests (bounds validation, quantile learning, routing
// lookups) plus ShardedDatabase: option validation, a single shard that
// is the identity, Collect with global-id rebasing, and arity rejection
// on the in-process Router::Over path.

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/shard_map.h"
#include "api/sharded_database.h"
#include "serve/router.h"
#include "tests/test_util.h"

namespace flood {
namespace {

using flood::testing::DataShape;
using flood::testing::MakeTable;
using flood::testing::RandomQuery;

// ---------------------------------------------------------------------------
// ShardMap: explicit bounds.
// ---------------------------------------------------------------------------

TEST(ShardMapTest, DefaultIsSingleShard) {
  const ShardMap map(2);
  EXPECT_EQ(map.sort_dim(), 2u);
  EXPECT_EQ(map.num_shards(), 1u);
  EXPECT_EQ(map.ShardForValue(kValueMin), 0u);
  EXPECT_EQ(map.ShardForValue(0), 0u);
  EXPECT_EQ(map.ShardForValue(kValueMax), 0u);
  EXPECT_TRUE(map.RangeOf(0).IsFullRange());
}

TEST(ShardMapTest, FromBoundsPartitionsTheValueSpace) {
  StatusOr<ShardMap> map = ShardMap::FromBounds(0, {100, 500});
  ASSERT_TRUE(map.ok());
  EXPECT_EQ(map->num_shards(), 3u);

  // Shard ranges tile the space: no gaps, no overlap.
  EXPECT_EQ(map->RangeOf(0).lo, kValueMin);
  EXPECT_EQ(map->RangeOf(0).hi, 99);
  EXPECT_EQ(map->RangeOf(1).lo, 100);
  EXPECT_EQ(map->RangeOf(1).hi, 499);
  EXPECT_EQ(map->RangeOf(2).lo, 500);
  EXPECT_EQ(map->RangeOf(2).hi, kValueMax);

  // Point lookups agree with the ranges, including at the boundaries.
  EXPECT_EQ(map->ShardForValue(99), 0u);
  EXPECT_EQ(map->ShardForValue(100), 1u);
  EXPECT_EQ(map->ShardForValue(499), 1u);
  EXPECT_EQ(map->ShardForValue(500), 2u);
  EXPECT_EQ(map->ShardForValue(kValueMin), 0u);
  EXPECT_EQ(map->ShardForValue(kValueMax), 2u);
}

TEST(ShardMapTest, FromBoundsRejectsBadBounds) {
  EXPECT_FALSE(ShardMap::FromBounds(0, {500, 100}).ok());   // Decreasing.
  EXPECT_FALSE(ShardMap::FromBounds(0, {100, 100}).ok());   // Duplicate.
  EXPECT_FALSE(ShardMap::FromBounds(0, {kValueMin}).ok());  // Empty shard 0.
}

TEST(ShardMapTest, ShardsForRangeClipsToIntersectingShards) {
  StatusOr<ShardMap> map = ShardMap::FromBounds(0, {100, 500});
  ASSERT_TRUE(map.ok());

  const auto one = map->ShardsForRange({150, 300});
  EXPECT_EQ(one.first, 1u);
  EXPECT_EQ(one.second, 1u);

  const auto straddle = map->ShardsForRange({99, 100});
  EXPECT_EQ(straddle.first, 0u);
  EXPECT_EQ(straddle.second, 1u);

  const auto all = map->ShardsForRange({kValueMin, kValueMax});
  EXPECT_EQ(all.first, 0u);
  EXPECT_EQ(all.second, 2u);
}

TEST(ShardMapTest, ShardsForQueryBroadcastsWithoutSortDimFilter) {
  StatusOr<ShardMap> map = ShardMap::FromBounds(0, {100, 500});
  ASSERT_TRUE(map.ok());

  Query unfiltered(3);
  unfiltered.SetRange(1, 0, 10);  // Filters dim 1, not the sort dim.
  const auto span = map->ShardsForQuery(unfiltered);
  EXPECT_EQ(span.first, 0u);
  EXPECT_EQ(span.second, 2u);

  Query pinned(3);
  pinned.SetEquals(0, 250);
  const auto one = map->ShardsForQuery(pinned);
  EXPECT_EQ(one.first, 1u);
  EXPECT_EQ(one.second, 1u);
}

// ---------------------------------------------------------------------------
// ShardMap: quantile learning.
// ---------------------------------------------------------------------------

TEST(ShardMapTest, FromQuantilesBalancesRowCounts) {
  const Table table = MakeTable(DataShape::kSkewed, 10'000, 2, 17);
  const ShardMap map = ShardMap::FromQuantiles(table, 0, 4);
  ASSERT_EQ(map.num_shards(), 4u);

  // Count the rows each shard owns: quantile cuts must balance them to
  // within the duplicate-run slack (values are never split across shards).
  std::vector<size_t> owned(map.num_shards(), 0);
  for (RowId r = 0; r < table.num_rows(); ++r) {
    ++owned[map.ShardForValue(table.Get(r, 0))];
  }
  for (size_t s = 0; s < owned.size(); ++s) {
    EXPECT_GT(owned[s], 0u) << "shard " << s << " owns no rows";
    EXPECT_LT(owned[s], table.num_rows() / 2) << "shard " << s;
  }
}

TEST(ShardMapTest, FromQuantilesCollapsesDuplicateHeavyColumns) {
  // A 12-value Zipf column cannot support 64 shards: the map must
  // collapse to fewer, never emit an empty shard, and still tile.
  const Table table = MakeTable(DataShape::kDuplicates, 5'000, 2, 23);
  const ShardMap map = ShardMap::FromQuantiles(table, 0, 64);
  ASSERT_GE(map.num_shards(), 1u);
  ASSERT_LE(map.num_shards(), 12u);

  std::vector<size_t> owned(map.num_shards(), 0);
  for (RowId r = 0; r < table.num_rows(); ++r) {
    ++owned[map.ShardForValue(table.Get(r, 0))];
  }
  for (size_t s = 0; s < owned.size(); ++s) {
    EXPECT_GT(owned[s], 0u) << "shard " << s << " owns no rows";
  }
}

TEST(ShardMapTest, FromQuantilesSingleShardAndToString) {
  const Table table = MakeTable(DataShape::kUniform, 1'000, 2, 29);
  const ShardMap one = ShardMap::FromQuantiles(table, 1, 1);
  EXPECT_EQ(one.num_shards(), 1u);
  EXPECT_EQ(one.sort_dim(), 1u);
  EXPECT_NE(one.ToString().find("dim 1"), std::string::npos);

  const ShardMap two = ShardMap::FromQuantiles(table, 0, 2);
  EXPECT_NE(two.ToString().find(".."), std::string::npos);
}

// ---------------------------------------------------------------------------
// ShardedDatabase: partitioning, Collect rebasing, and the in-process
// Router::Over path. Routed bit-equivalence to one unsharded Database for
// every index, with writes in flight, lives in serve_router_test.
// ---------------------------------------------------------------------------

StatusOr<ShardedDatabase> OpenSharded(const Table& table,
                                      const std::string& index,
                                      size_t num_shards) {
  ShardedDatabaseOptions options;
  options.num_shards = num_shards;
  options.sort_dim = 0;
  options.shard_options.index_name = index;
  options.shard_options.num_threads = 2;
  return ShardedDatabase::Open(table, options);
}

/// Runs one batch through the router and blocks for the merged result (the
/// completion may fire on a shard's pool thread).
serve::EngineBatchResult RunRouted(serve::Router* router,
                                   std::vector<Query> queries) {
  std::promise<serve::EngineBatchResult> done;
  std::future<serve::EngineBatchResult> result = done.get_future();
  router->RunBatchAsync(std::move(queries),
                        [&done](serve::EngineBatchResult r) {
                          done.set_value(std::move(r));
                        });
  return result.get();
}

TEST(ShardedDatabaseTest, SingleShardIsTheIdentity) {
  const Table table = MakeTable(DataShape::kCorrelated, 2'000, 2, 31);
  StatusOr<ShardedDatabase> sharded = OpenSharded(table, "kdtree", 1);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->num_shards(), 1u);
  EXPECT_EQ(sharded->num_rows(), table.num_rows());
  std::unique_ptr<serve::Router> router = serve::Router::Over(&*sharded);

  DatabaseOptions options;
  options.num_threads = 2;
  StatusOr<Database> single = Database::Open(table, std::move(options));
  ASSERT_TRUE(single.ok());
  for (size_t i = 0; i < 10; ++i) {
    const Query q = RandomQuery(table, 400 + i);
    const serve::EngineBatchResult routed = RunRouted(router.get(), {q});
    ASSERT_TRUE(routed.status.ok()) << i;
    ASSERT_EQ(routed.results.size(), 1u) << i;
    EXPECT_EQ(routed.results[0].code, serve::WireCode::kOk) << i;
    EXPECT_EQ(routed.results[0].count, single->Run(q).count) << i;
  }
}

TEST(ShardedDatabaseTest, CollectRebasesIdsIntoOneGlobalSpace) {
  const Table table = MakeTable(DataShape::kUniform, 2'500, 3, 41);
  StatusOr<ShardedDatabase> sharded = OpenSharded(table, "kdtree", 3);
  ASSERT_TRUE(sharded.ok());
  std::unique_ptr<serve::Router> router = serve::Router::Over(&*sharded);
  // Staged inserts widen shard id spaces unevenly before the collect.
  for (Value i = 0; i < 9; ++i) {
    ASSERT_TRUE(router->Insert({i * 137, 50 + i, 900 - i}).ok());
  }

  DatabaseOptions options;
  options.num_threads = 2;
  StatusOr<Database> single = Database::Open(table, std::move(options));
  ASSERT_TRUE(single.ok());
  for (Value i = 0; i < 9; ++i) {
    ASSERT_TRUE(single->Insert({i * 137, 50 + i, 900 - i}).ok());
  }

  Query q(3);
  q.SetRange(0, 0, 600'000);  // Straddles shard boundaries.
  q.SetRange(1, 0, 500'000);
  StatusOr<QueryResult> got = sharded->TryCollect(q);
  StatusOr<QueryResult> want = single->TryCollect(q);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got->rows.size(), want->rows.size());

  // Global ids are unique and resolve — through the facade — to exactly
  // the same multiset of tuples the unsharded database returns.
  std::set<RowId> unique(got->rows.begin(), got->rows.end());
  EXPECT_EQ(unique.size(), got->rows.size());
  std::vector<std::vector<Value>> got_rows;
  std::vector<std::vector<Value>> want_rows;
  for (size_t i = 0; i < got->rows.size(); ++i) {
    StatusOr<std::vector<Value>> row = sharded->TryGetRow(got->rows[i]);
    ASSERT_TRUE(row.ok()) << "global id " << got->rows[i];
    got_rows.push_back(*std::move(row));
    StatusOr<std::vector<Value>> wrow = single->TryGetRow(want->rows[i]);
    ASSERT_TRUE(wrow.ok());
    want_rows.push_back(*std::move(wrow));
  }
  std::sort(got_rows.begin(), got_rows.end());
  std::sort(want_rows.begin(), want_rows.end());
  EXPECT_EQ(got_rows, want_rows);

  // An out-of-range global id is a typed error, not a crash.
  EXPECT_FALSE(sharded->TryGetRow(1u << 30).ok());
}

TEST(ShardedDatabaseTest, OpenValidatesOptions) {
  const Table table = MakeTable(DataShape::kUniform, 500, 2, 51);
  ShardedDatabaseOptions bad_dim;
  bad_dim.sort_dim = 7;
  EXPECT_FALSE(ShardedDatabase::Open(table, bad_dim).ok());
  ShardedDatabaseOptions no_shards;
  no_shards.num_shards = 0;
  EXPECT_FALSE(ShardedDatabase::Open(table, no_shards).ok());
}

TEST(ShardedDatabaseTest, RoutedPathRejectsArityMismatches) {
  const Table table = MakeTable(DataShape::kUniform, 500, 2, 51);
  StatusOr<ShardedDatabase> db = OpenSharded(table, "kdtree", 2);
  ASSERT_TRUE(db.ok());
  std::unique_ptr<serve::Router> router = serve::Router::Over(&*db);

  EXPECT_FALSE(router->Insert({1, 2, 3}).ok());  // 3 values, 2 dims.
  EXPECT_FALSE(router->Delete({1}).ok());        // 1 value, 2 dims.
  EXPECT_FALSE(db->TryCollect(Query(3)).ok());   // 3-dim query, 2 dims.
  // A malformed query fails with a typed per-query code, not a result.
  const serve::EngineBatchResult bad = RunRouted(router.get(), {Query(3)});
  ASSERT_TRUE(bad.status.ok());
  ASSERT_EQ(bad.results.size(), 1u);
  EXPECT_EQ(bad.results[0].code, serve::WireCode::kInvalidArgument);
  EXPECT_EQ(db->num_rows(), table.num_rows());  // Nothing was staged.
}

}  // namespace
}  // namespace flood
