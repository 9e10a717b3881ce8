// Behavioral and regression tests that go beyond result correctness:
// physical-layout effects (range merging, dimension exclusion), duplicate
// handling at page boundaries, and determinism guarantees.

#include <gtest/gtest.h>

#include "api/index_registry.h"
#include "core/flood_index.h"
#include "core/layout_optimizer.h"
#include "query/executor.h"
#include "tests/test_util.h"

namespace flood {
namespace {

using testing::BruteForce;
using testing::DataShape;
using testing::MakeTable;
using testing::RandomQuery;

std::unique_ptr<MultiDimIndex> MakeRegistered(const std::string& name,
                                              const IndexOptions& opts = {}) {
  StatusOr<std::unique_ptr<MultiDimIndex>> index =
      IndexRegistry::Global().Create(name, opts);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  return index.ok() ? std::move(*index) : nullptr;
}

// Regression: duplicate Z-codes spanning page boundaries used to make the
// Z-order index start scanning after the first matching page.
TEST(ZOrderRegressionTest, DuplicateCodesAcrossPages) {
  // 90% of rows share one exact point; pages are tiny so the duplicate
  // z-code spans many pages.
  Rng rng(17);
  const size_t n = 4000;
  std::vector<Value> a(n);
  std::vector<Value> b(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextDouble() < 0.9) {
      a[i] = 500;
      b[i] = 600;
    } else {
      a[i] = rng.UniformInt(0, 1000);
      b[i] = rng.UniformInt(0, 1000);
    }
  }
  StatusOr<Table> t = Table::FromColumns({a, b});
  ASSERT_TRUE(t.ok());
  std::unique_ptr<MultiDimIndex> index =
      MakeRegistered("zorder", IndexOptions().SetInt("page_size", 64));
  const BuildContext ctx;
  ASSERT_TRUE(index->Build(*t, ctx).ok());
  Query q = QueryBuilder(2).Equals(0, 500).Equals(1, 600).Build();
  EXPECT_EQ(ExecuteAggregate(*index, q, nullptr).count,
            BruteForce(*t, q, 0).count);
}

TEST(ZOrderVsUbTreeTest, IdenticalResultsAcrossManyQueries) {
  const Table t = MakeTable(DataShape::kClustered, 8000, 3, 18);
  const BuildContext ctx;
  std::unique_ptr<MultiDimIndex> z = MakeRegistered("zorder");
  std::unique_ptr<MultiDimIndex> ub = MakeRegistered("ubtree");
  ASSERT_TRUE(z->Build(t, ctx).ok());
  ASSERT_TRUE(ub->Build(t, ctx).ok());
  for (uint64_t seed = 0; seed < 40; ++seed) {
    const Query q = RandomQuery(t, 8000 + seed);
    EXPECT_EQ(ExecuteAggregate(*z, q, nullptr).count,
              ExecuteAggregate(*ub, q, nullptr).count)
        << q.ToString();
  }
}

// Merging: with no sort-dimension filter, physically-adjacent interior
// cells must coalesce into long runs (fewer ranges than cells).
TEST(FloodBehaviorTest, InteriorCellsMergeIntoRuns) {
  const Table t = MakeTable(DataShape::kUniform, 30'000, 3, 19);
  FloodIndex::Options o;
  o.layout.dim_order = {0, 1, 2};  // Grid over d0,d1; sort d2.
  o.layout.columns = {16, 16};
  FloodIndex index(o);
  const BuildContext ctx;
  ASSERT_TRUE(index.Build(t, ctx).ok());

  // Filter only d0: for each of its ~k intersecting columns, the whole
  // d1 row of 16 cells should merge into one run.
  Query q(3);
  q.SetRange(0, 200'000, 700'000);
  QueryStats stats;
  (void)ExecuteAggregate(index, q, &stats);
  EXPECT_GT(stats.cells_visited, stats.ranges_scanned * 4)
      << "adjacent cells should merge when no refinement applies";

  // Filter d2 (sort): per-cell refinement forbids merging.
  Query q2(3);
  q2.SetRange(2, 0, 500'000);
  QueryStats stats2;
  (void)ExecuteAggregate(index, q2, &stats2);
  EXPECT_GE(stats2.ranges_scanned + 2, stats2.cells_visited)
      << "refined cells scan per-cell ranges";
}

// A grid dimension with one column behaves exactly like an unindexed
// dimension: filters on it are per-point checks.
TEST(FloodBehaviorTest, SingleColumnDimensionActsExcluded) {
  const Table t = MakeTable(DataShape::kUniform, 10'000, 3, 20);
  FloodIndex::Options o;
  o.layout.dim_order = {0, 1, 2};
  o.layout.columns = {1, 32};  // d0 excluded, d1 gridded, d2 sorted.
  FloodIndex index(o);
  const BuildContext ctx;
  ASSERT_TRUE(index.Build(t, ctx).ok());
  Query q(3);
  q.SetRange(0, 100'000, 200'000);  // Only the excluded dim.
  QueryStats stats;
  const AggResult r = ExecuteAggregate(index, q, &stats);
  EXPECT_EQ(r.count, BruteForce(t, q, 0).count);
  // Every row must be scanned (the filter can't prune cells).
  EXPECT_EQ(stats.points_scanned, t.num_rows());
}

TEST(FloodBehaviorTest, FlatteningBalancesCellSizes) {
  const Table t = MakeTable(DataShape::kSkewed, 40'000, 2, 21);
  FloodIndex::Options flat;
  flat.layout.dim_order = {0, 1};
  flat.layout.columns = {64};
  flat.flatten_mode = Flattener::Mode::kCdf;
  FloodIndex::Options lin = flat;
  lin.flatten_mode = Flattener::Mode::kLinear;
  FloodIndex a(flat);
  FloodIndex b(lin);
  const BuildContext ctx;
  ASSERT_TRUE(a.Build(t, ctx).ok());
  ASSERT_TRUE(b.Build(t, ctx).ok());
  auto max_cell = [](const FloodIndex& idx) {
    size_t mx = 0;
    for (size_t c = 0; c < idx.num_cells(); ++c) {
      mx = std::max(mx, idx.CellSize(c));
    }
    return mx;
  };
  // On lognormal data, equal-width columns pile everything into a few
  // cells; flattened columns stay near the even share.
  EXPECT_LT(max_cell(a), max_cell(b) / 4);
}

TEST(OptimizerDeterminismTest, SameSeedSameLayout) {
  const Table t = MakeTable(DataShape::kClustered, 20'000, 4, 22);
  Workload w;
  for (int i = 0; i < 30; ++i) w.Add(RandomQuery(t, 400 + i));
  const CostModel model = CostModel::Default();
  LayoutOptimizer::Options opts;
  opts.data_sample_size = 5000;
  opts.query_sample_size = 20;
  opts.max_cells = 1 << 12;
  LayoutOptimizer optimizer(&model, opts);
  const auto a = optimizer.Optimize(t, w);
  const auto b = optimizer.Optimize(t, w);
  EXPECT_EQ(a.layout.dim_order, b.layout.dim_order);
  EXPECT_EQ(a.layout.columns, b.layout.columns);
}

TEST(FloodBuildDeterminismTest, SameOptionsSameStorageOrder) {
  const Table t = MakeTable(DataShape::kDuplicates, 5000, 3, 23);
  FloodIndex::Options o;
  o.layout = GridLayout::Default(3, 64);
  FloodIndex a(o);
  FloodIndex b(o);
  const BuildContext ctx;
  ASSERT_TRUE(a.Build(t, ctx).ok());
  ASSERT_TRUE(b.Build(t, ctx).ok());
  for (RowId r = 0; r < t.num_rows(); r += 97) {
    for (size_t d = 0; d < 3; ++d) {
      ASSERT_EQ(a.data().Get(r, d), b.data().Get(r, d));
    }
  }
}

// Exactness accounting must line up: exact points never exceed scanned,
// and fully-covered queries are answered almost entirely exactly.
TEST(FloodBehaviorTest, ExactnessAccounting) {
  const Table t = MakeTable(DataShape::kUniform, 20'000, 3, 24);
  FloodIndex::Options o;
  o.layout = GridLayout::Default(3, 256);
  FloodIndex index(o);
  const BuildContext ctx;
  ASSERT_TRUE(index.Build(t, ctx).ok());
  Query q(3);  // Unfiltered.
  QueryStats stats;
  (void)ExecuteAggregate(index, q, &stats);
  EXPECT_EQ(stats.points_exact, stats.points_scanned);
  EXPECT_EQ(stats.points_exact, t.num_rows());
}

// The §7.1 optimization ablation flags change performance counters but
// never results.
TEST(FloodBehaviorTest, AblationFlagsPreserveResults) {
  const Table t = MakeTable(DataShape::kClustered, 8000, 3, 26);
  const BuildContext ctx;
  FloodIndex::Options base;
  base.layout = GridLayout::Default(3, 64);
  FloodIndex full(base);
  ASSERT_TRUE(full.Build(t, ctx).ok());

  for (const auto& [exact, merge] :
       std::vector<std::pair<bool, bool>>{{false, true},
                                          {true, false},
                                          {false, false}}) {
    FloodIndex::Options o = base;
    o.enable_exact_ranges = exact;
    o.enable_run_merging = merge;
    FloodIndex variant(o);
    ASSERT_TRUE(variant.Build(t, ctx).ok());
    for (uint64_t seed = 0; seed < 20; ++seed) {
      const Query q = RandomQuery(t, 9000 + seed);
      QueryStats full_stats;
      QueryStats var_stats;
      const AggResult a = ExecuteAggregate(full, q, &full_stats);
      const AggResult b = ExecuteAggregate(variant, q, &var_stats);
      EXPECT_EQ(a.count, b.count)
          << "exact=" << exact << " merge=" << merge << " " << q.ToString();
      // Disabling exact ranges means nothing scans check-free.
      if (!exact && q.NumFiltered() > 0) {
        EXPECT_EQ(var_stats.points_exact, 0u);
      }
      if (!merge) {
        EXPECT_GE(var_stats.ranges_scanned, full_stats.ranges_scanned);
      }
    }
  }
}

// SUM through prefix sums must agree with SUM through per-row access on
// queries dominated by exact ranges.
TEST(FloodBehaviorTest, PrefixSumPathMatchesRowPath) {
  const Table t = MakeTable(DataShape::kUniform, 20'000, 3, 25);
  Workload w;
  Query q = QueryBuilder(3).Range(0, 100'000, 900'000).Sum(1).Build();
  w.Add(q);
  BuildContext ctx;
  ctx.workload = &w;
  FloodIndex::Options o;
  o.layout.dim_order = {0, 1, 2};
  o.layout.columns = {64, 4};
  FloodIndex index(o);
  ASSERT_TRUE(index.Build(t, ctx).ok());
  ASSERT_NE(index.prefix_sums(1), nullptr);
  const auto oracle = BruteForce(t, q, 1);
  QueryStats stats;
  const AggResult r = ExecuteAggregate(index, q, &stats);
  EXPECT_EQ(r.sum, oracle.sum);
  EXPECT_GT(stats.points_exact, 0u);
}

}  // namespace
}  // namespace flood
