#include <gtest/gtest.h>

#include "core/delta_buffer.h"
#include "core/flood_index.h"
#include "query/executor.h"
#include "query/visitor.h"
#include "tests/test_util.h"

namespace flood {
namespace {

TEST(DeltaBufferTest, InsertAndScan) {
  DeltaBuffer buffer(2);
  ASSERT_TRUE(buffer.Insert({10, 100}).ok());
  ASSERT_TRUE(buffer.Insert({20, 200}).ok());
  ASSERT_TRUE(buffer.Insert({30, 300}).ok());
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.Get(1, 0), 20);
  EXPECT_EQ(buffer.Get(2, 1), 300);

  Query q = QueryBuilder(2).Range(0, 15, 35).Build();
  CollectVisitor v;
  QueryStats stats;
  buffer.Scan(q, v, /*base_row_id=*/1000, &stats);
  ASSERT_EQ(v.rows().size(), 2u);
  EXPECT_EQ(v.rows()[0], 1001u);
  EXPECT_EQ(v.rows()[1], 1002u);
  EXPECT_EQ(stats.points_scanned, 3u);
  EXPECT_EQ(stats.points_matched, 2u);
}

TEST(DeltaBufferTest, RejectsArityMismatch) {
  DeltaBuffer buffer(3);
  EXPECT_FALSE(buffer.Insert({1, 2}).ok());
}

TEST(DeltaBufferTest, MaterializeProducesCombinedTable) {
  StatusOr<Table> main = Table::FromColumns({{1, 2}, {10, 20}});
  ASSERT_TRUE(main.ok());
  DeltaBuffer buffer(2);
  ASSERT_TRUE(buffer.Insert({3, 30}).ok());
  StatusOr<Table> merged = buffer.Materialize(*main);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->num_rows(), 3u);
  EXPECT_EQ(merged->Get(2, 0), 3);
  EXPECT_EQ(merged->Get(2, 1), 30);
  // The caller clears once the rebuilt index is in place.
  EXPECT_EQ(buffer.size(), 1u);
  buffer.Clear();
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(DeltaBufferTest, EraseMatchingRemovesFullTupleEqualRows) {
  DeltaBuffer buffer(2);
  ASSERT_TRUE(buffer.Insert({1, 10}).ok());
  ASSERT_TRUE(buffer.Insert({2, 20}).ok());
  ASSERT_TRUE(buffer.Insert({1, 10}).ok());
  ASSERT_TRUE(buffer.Insert({1, 99}).ok());  // Same key dim, other value.
  EXPECT_EQ(buffer.EraseMatching({1, 10}), 2u);
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.Get(0, 0), 2);
  EXPECT_EQ(buffer.Get(1, 1), 99);  // Survivors keep their order.
  EXPECT_EQ(buffer.EraseMatching({7, 7}), 0u);
  EXPECT_EQ(buffer.EraseMatching({1, 10, 3}), 0u);  // Arity mismatch.
}

TEST(DeltaBufferTest, TombstonesRefuseDuplicates) {
  DeltaBuffer buffer(2);
  EXPECT_TRUE(buffer.AddTombstone(7));
  EXPECT_FALSE(buffer.AddTombstone(7));
  EXPECT_TRUE(buffer.AddTombstone(3));
  EXPECT_TRUE(buffer.IsTombstoned(7));
  EXPECT_FALSE(buffer.IsTombstoned(8));
  EXPECT_EQ(buffer.num_tombstones(), 2u);
  EXPECT_EQ(buffer.pending(), 2u);
  ASSERT_TRUE(buffer.Insert({1, 2}).ok());
  EXPECT_EQ(buffer.pending(), 3u);
}

TEST(DeltaBufferTest, MaterializeDropsTombstonesAndKeepsBuffer) {
  StatusOr<Table> main = Table::FromColumns({{1, 2, 3, 4}, {10, 20, 30, 40}});
  ASSERT_TRUE(main.ok());
  DeltaBuffer buffer(2);
  ASSERT_TRUE(buffer.Insert({5, 50}).ok());
  ASSERT_TRUE(buffer.AddTombstone(1));  // Drops row (2, 20).
  StatusOr<Table> merged = buffer.Materialize(*main);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->num_rows(), 4u);  // 4 base - 1 tombstone + 1 insert.
  EXPECT_EQ(merged->Get(0, 0), 1);
  EXPECT_EQ(merged->Get(1, 0), 3);  // Row 1 was tombstoned away.
  EXPECT_EQ(merged->Get(3, 0), 5);
  EXPECT_EQ(merged->Get(3, 1), 50);
  // Materialize is non-destructive: a failed rebuild loses no writes.
  EXPECT_EQ(buffer.size(), 1u);
  EXPECT_EQ(buffer.num_tombstones(), 1u);

  // A tombstone past the base table is rejected.
  ASSERT_TRUE(buffer.AddTombstone(99));
  EXPECT_FALSE(buffer.Materialize(*main).ok());
}

TEST(DeltaBufferTest, ScanAccountsDeltaRowsScanned) {
  DeltaBuffer buffer(1);
  ASSERT_TRUE(buffer.Insert({5}).ok());
  ASSERT_TRUE(buffer.Insert({15}).ok());
  Query q = QueryBuilder(1).Range(0, 0, 10).Build();
  CountVisitor v;
  QueryStats stats;
  buffer.Scan(q, v, 0, &stats);
  EXPECT_EQ(v.count(), 1u);
  EXPECT_EQ(stats.delta_rows_scanned, 2u);
  EXPECT_EQ(stats.points_scanned, 2u);
  EXPECT_EQ(stats.points_matched, 1u);
}

TEST(DeltaBufferTest, InsertsVisibleThroughCombinedQueryPath) {
  // End-to-end §8 pattern: main FloodIndex + buffer, then merge + rebuild.
  const Table t = testing::MakeTable(testing::DataShape::kUniform, 2000, 2,
                                     77);
  FloodIndex::Options o;
  o.layout = GridLayout::Default(2, 16);
  FloodIndex index(o);
  BuildContext ctx;
  ASSERT_TRUE(index.Build(t, ctx).ok());

  DeltaBuffer buffer(2);
  for (Value v = 0; v < 50; ++v) {
    ASSERT_TRUE(buffer.Insert({500'000, v}).ok());
  }

  Query q = QueryBuilder(2).Range(0, 499'999, 500'001).Build();
  // Combined result = index result + buffer scan.
  CountVisitor main_count;
  index.Execute(q, main_count, nullptr);
  CountVisitor buffer_count;
  buffer.Scan(q, buffer_count, t.num_rows(), nullptr);
  const uint64_t combined = main_count.count() + buffer_count.count();

  // After merging and rebuilding, the single index agrees.
  StatusOr<Table> merged = buffer.Materialize(t);
  ASSERT_TRUE(merged.ok());
  buffer.Clear();
  FloodIndex rebuilt(o);
  BuildContext ctx2;
  ASSERT_TRUE(rebuilt.Build(*merged, ctx2).ok());
  EXPECT_EQ(ExecuteAggregate(rebuilt, q, nullptr).count, combined);
  EXPECT_GE(combined, 50u);
}

}  // namespace
}  // namespace flood
