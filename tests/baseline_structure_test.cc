// Structural checks on the baseline indexes (leaf budgets, directory
// behavior, metadata footprints), driven entirely through the
// IndexRegistry and the generic DebugProperties() introspection — no
// concrete baseline headers.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "api/index_registry.h"
#include "query/visitor.h"
#include "tests/test_util.h"

namespace flood {
namespace {

using testing::DataShape;
using testing::MakeTable;

std::unique_ptr<MultiDimIndex> Make(const std::string& name,
                                    const IndexOptions& opts = {}) {
  StatusOr<std::unique_ptr<MultiDimIndex>> index =
      IndexRegistry::Global().Create(name, opts);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return index.ok() ? std::move(*index) : nullptr;
}

std::map<std::string, double> Props(const MultiDimIndex& index) {
  std::map<std::string, double> props;
  for (const auto& [key, value] : index.DebugProperties()) {
    props[key] = value;
  }
  return props;
}

TEST(ClusteredStructureTest, DataSortedBySortDim) {
  const Table t = MakeTable(DataShape::kSkewed, 5000, 3, 1);
  std::unique_ptr<MultiDimIndex> index =
      Make("clustered", IndexOptions().SetInt("sort_dim", 1));
  const BuildContext ctx;
  ASSERT_TRUE(index->Build(t, ctx).ok());
  EXPECT_EQ(Props(*index)["sort_dim"], 1.0);
  EXPECT_EQ(index->Describe(), "Clustered[sort_dim=1]");
  Value prev = kValueMin;
  for (RowId r = 0; r < t.num_rows(); ++r) {
    const Value v = index->data().Get(r, 1);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(KdTreeStructureTest, LeafSizesRespectPageBudget) {
  const Table t = MakeTable(DataShape::kUniform, 20'000, 3, 2);
  std::unique_ptr<MultiDimIndex> index =
      Make("kdtree", IndexOptions().SetInt("page_size", 256));
  const BuildContext ctx;
  ASSERT_TRUE(index->Build(t, ctx).ok());
  // n/page lower bound; duplicates can force larger leaves on other shapes.
  EXPECT_GE(Props(*index)["num_leaves"], 20'000.0 / 256.0);
}

TEST(HyperoctreeStructureTest, LeafCountScalesWithPageSize) {
  const Table t = MakeTable(DataShape::kClustered, 20'000, 3, 3);
  std::unique_ptr<MultiDimIndex> a =
      Make("octree", IndexOptions().SetInt("page_size", 128));
  std::unique_ptr<MultiDimIndex> b =
      Make("octree", IndexOptions().SetInt("page_size", 4096));
  const BuildContext ctx;
  ASSERT_TRUE(a->Build(t, ctx).ok());
  ASSERT_TRUE(b->Build(t, ctx).ok());
  EXPECT_GT(Props(*a)["num_leaves"], Props(*b)["num_leaves"]);
  EXPECT_GT(a->IndexSizeBytes(), b->IndexSizeBytes());
}

TEST(RTreeStructureTest, HeightAndLeaves) {
  const Table t = MakeTable(DataShape::kUniform, 30'000, 3, 4);
  std::unique_ptr<MultiDimIndex> index = Make(
      "rtree",
      IndexOptions().SetInt("leaf_capacity", 128).SetInt("fanout", 8));
  const BuildContext ctx;
  ASSERT_TRUE(index->Build(t, ctx).ok());
  EXPECT_GE(Props(*index)["num_leaves"], 30'000.0 / 128.0);
  EXPECT_GE(Props(*index)["height"], 3.0);  // ~235 leaves at fanout 8.
}

TEST(GridFileStructureTest, BucketsPartitionRows) {
  const Table t = MakeTable(DataShape::kUniform, 10'000, 3, 5);
  std::unique_ptr<MultiDimIndex> index =
      Make("grid_file", IndexOptions().SetInt("page_size", 512));
  const BuildContext ctx;
  ASSERT_TRUE(index->Build(t, ctx).ok());
  EXPECT_GT(Props(*index)["num_buckets"], 1.0);
}

TEST(GridFileStructureTest, BudgetTripsOnPathologicalSkew) {
  // A dimension where most mass piles on a single value with a huge
  // outlier range forces midpoint splits to keep missing the mass; the
  // directory budget must trip rather than hang (paper: N/A entries).
  Rng rng(6);
  const size_t n = 30'000;
  std::vector<Value> spike(n);
  std::vector<Value> other(n);
  for (size_t i = 0; i < n; ++i) {
    // 99.9% of values identical; rare huge outliers.
    spike[i] = rng.NextDouble() < 0.999 ? 0 : rng.UniformInt(1, int64_t{1} << 60);
    other[i] = rng.UniformInt(0, 1000);
  }
  StatusOr<Table> t = Table::FromColumns({spike, other});
  ASSERT_TRUE(t.ok());
  std::unique_ptr<MultiDimIndex> index =
      Make("grid_file", IndexOptions()
                            .SetInt("page_size", 64)
                            .SetInt("max_directory_entries", 1 << 12));
  const BuildContext ctx;
  const Status s = index->Build(*t, ctx);
  // Either it finishes within budget or fails cleanly — never hangs/crashes.
  if (!s.ok()) {
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  }
}

TEST(ZOrderStructureTest, PageSizeControlsMetadataFootprint) {
  const Table t = MakeTable(DataShape::kUniform, 20'000, 3, 7);
  std::unique_ptr<MultiDimIndex> a =
      Make("zorder", IndexOptions().SetInt("page_size", 128));
  std::unique_ptr<MultiDimIndex> b =
      Make("zorder", IndexOptions().SetInt("page_size", 2048));
  const BuildContext ctx;
  ASSERT_TRUE(a->Build(t, ctx).ok());
  ASSERT_TRUE(b->Build(t, ctx).ok());
  EXPECT_GT(Props(*a)["num_pages"], Props(*b)["num_pages"]);
  EXPECT_GT(a->IndexSizeBytes(), b->IndexSizeBytes());
}

TEST(UbTreeStructureTest, SkippingScansFewerPointsThanZOrderOnSparseBoxes) {
  // A query box tiny in both dims: the Z curve enters/exits repeatedly, so
  // BIGMIN skipping should visit far fewer points than the naive z-range.
  const Table t = MakeTable(DataShape::kUniform, 50'000, 2, 8);
  std::unique_ptr<MultiDimIndex> ub = Make("ubtree");
  std::unique_ptr<MultiDimIndex> z =
      Make("zorder", IndexOptions().SetInt("page_size", 256));
  const BuildContext ctx;
  ASSERT_TRUE(ub->Build(t, ctx).ok());
  ASSERT_TRUE(z->Build(t, ctx).ok());
  Query q = QueryBuilder(2)
                .Range(0, 500'000, 520'000)
                .Range(1, 500'000, 520'000)
                .Build();
  QueryStats ub_stats;
  QueryStats z_stats;
  CountVisitor v1;
  CountVisitor v2;
  ub->Execute(q, v1, &ub_stats);
  z->Execute(q, v2, &z_stats);
  EXPECT_EQ(v1.count(), v2.count());
  EXPECT_LT(ub_stats.points_scanned, z_stats.points_scanned + 1);
}

TEST(BaselineSizeTest, IndexSizesArePositiveAndOrdered) {
  const Table t = MakeTable(DataShape::kUniform, 20'000, 3, 9);
  const BuildContext ctx;
  std::unique_ptr<MultiDimIndex> ub = Make("ubtree");
  ASSERT_TRUE(ub->Build(t, ctx).ok());
  // UB-tree stores per-point keys: by far the largest.
  std::unique_ptr<MultiDimIndex> z = Make("zorder");
  ASSERT_TRUE(z->Build(t, ctx).ok());
  EXPECT_GT(ub->IndexSizeBytes(), z->IndexSizeBytes());
  EXPECT_GT(z->IndexSizeBytes(), 0u);
}

}  // namespace
}  // namespace flood
