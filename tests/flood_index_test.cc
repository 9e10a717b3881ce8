#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "baselines/full_scan.h"
#include "core/flood_index.h"
#include "query/executor.h"
#include "tests/test_util.h"

namespace flood {
namespace {

using testing::BruteForce;
using testing::DataShape;
using testing::MakeTable;
using testing::RandomQuery;

BuildContext MakeCtx(const Table& t, const Workload* w = nullptr) {
  BuildContext ctx;
  ctx.workload = w;
  ctx.sample = DataSample::FromTable(t, 1000, 5);
  return ctx;
}

// The values of `rows`, sorted: storage orders differ across indexes.
std::vector<std::vector<Value>> SortedRows(const MultiDimIndex& index,
                                           const std::vector<RowId>& rows) {
  std::vector<std::vector<Value>> out;
  for (RowId r : rows) {
    std::vector<Value> row;
    for (size_t d = 0; d < index.data().num_dims(); ++d) {
      row.push_back(index.data().Get(r, d));
    }
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(FloodIndexTest, BuildRejectsInvalidLayout) {
  const Table t = MakeTable(DataShape::kUniform, 100, 3, 1);
  FloodIndex::Options o;
  o.layout.dim_order = {0, 0, 1};
  o.layout.columns = {2, 2};
  FloodIndex index(o);
  const BuildContext ctx = MakeCtx(t);
  EXPECT_FALSE(index.Build(t, ctx).ok());
}

TEST(FloodIndexTest, BuildRejectsCellBudgetOverflow) {
  const Table t = MakeTable(DataShape::kUniform, 100, 3, 2);
  FloodIndex::Options o;
  o.layout = GridLayout::Default(3, 1u << 20);
  o.max_cells = 1024;
  FloodIndex index(o);
  const BuildContext ctx = MakeCtx(t);
  const Status s = index.Build(t, ctx);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

// A layout whose cell count overflows 64 bits must not wrap to a small
// count that passes the max_cells check.
TEST(FloodIndexTest, BuildRejectsOverflowingCellCount) {
  const Table t = MakeTable(DataShape::kUniform, 2000, 6, 2);
  const StatusOr<GridLayout> layout = GridLayout::Parse(
      "order=0,1,2,3,4,5;cols=65536,65536,65536,65536,1;sort=1");
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  FloodIndex::Options o;
  o.layout = *layout;
  FloodIndex index(o);
  const Status s = index.Build(t, MakeCtx(t));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

// Cell ids are 32-bit, so no max_cells budget admits more cells.
TEST(FloodIndexTest, BuildRejectsCellCountAbove32Bits) {
  const Table t = MakeTable(DataShape::kUniform, 100, 3, 2);
  FloodIndex::Options o;
  o.layout.dim_order = {0, 1, 2};
  o.layout.columns = {65536, 65537};
  o.max_cells = std::numeric_limits<uint64_t>::max();
  FloodIndex index(o);
  const Status s = index.Build(t, MakeCtx(t));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
}

TEST(FloodIndexTest, CellTablePartitionsRows) {
  const Table t = MakeTable(DataShape::kClustered, 5000, 3, 3);
  FloodIndex::Options o;
  o.layout = GridLayout::Default(3, 100);
  FloodIndex index(o);
  const BuildContext ctx = MakeCtx(t);
  ASSERT_TRUE(index.Build(t, ctx).ok());
  size_t total = 0;
  for (size_t c = 0; c < index.num_cells(); ++c) total += index.CellSize(c);
  EXPECT_EQ(total, t.num_rows());
}

TEST(FloodIndexTest, RowsWithinCellSortedBySortDim) {
  const Table t = MakeTable(DataShape::kUniform, 4000, 3, 4);
  FloodIndex::Options o;
  o.layout = GridLayout::Default(3, 64);
  FloodIndex index(o);
  const BuildContext ctx = MakeCtx(t);
  ASSERT_TRUE(index.Build(t, ctx).ok());
  const size_t sort_dim = index.layout().sort_dim();
  size_t offset = 0;
  for (size_t c = 0; c < index.num_cells(); ++c) {
    const size_t size = index.CellSize(c);
    Value prev = kValueMin;
    for (size_t i = 0; i < size; ++i) {
      const Value v = index.data().Get(offset + i, sort_dim);
      EXPECT_GE(v, prev);
      prev = v;
    }
    offset += size;
  }
}

class FloodLayoutSweepTest
    : public ::testing::TestWithParam<
          std::tuple<DataShape, size_t /*sort dim*/, uint32_t /*cols*/,
                     bool /*flatten*/>> {};

TEST_P(FloodLayoutSweepTest, MatchesOracleAcrossLayouts) {
  const auto [shape, sort_dim, cols, flatten] = GetParam();
  const size_t d = 3;
  const Table t = MakeTable(shape, 2500, d, 7);

  GridLayout layout;
  for (size_t dim = 0; dim < d; ++dim) {
    if (dim != sort_dim) layout.dim_order.push_back(dim);
  }
  layout.dim_order.push_back(sort_dim);
  layout.use_sort_dim = true;
  layout.columns.assign(d - 1, cols);

  FloodIndex::Options o;
  o.layout = layout;
  o.flatten_mode =
      flatten ? Flattener::Mode::kCdf : Flattener::Mode::kLinear;
  o.plm_min_cell_size = 32;
  FloodIndex index(o);
  const BuildContext ctx = MakeCtx(t);
  ASSERT_TRUE(index.Build(t, ctx).ok());

  for (uint64_t seed = 0; seed < 20; ++seed) {
    const Query q = RandomQuery(t, 3000 + seed);
    const auto oracle = BruteForce(t, q, 0);
    QueryStats stats;
    const AggResult r = ExecuteAggregate(*&index, q, &stats);
    EXPECT_EQ(r.count, oracle.count) << q.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FloodLayoutSweepTest,
    ::testing::Combine(::testing::Values(DataShape::kUniform,
                                         DataShape::kSkewed,
                                         DataShape::kDuplicates),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{2}),
                       ::testing::Values(1u, 3u, 16u),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(testing::DataShapeName(std::get<0>(info.param))) +
             "_sort" + std::to_string(std::get<1>(info.param)) + "_c" +
             std::to_string(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_cdf" : "_lin");
    });

TEST(FloodIndexTest, RefinementShrinksScansWhenSortDimFiltered) {
  const Table t = MakeTable(DataShape::kUniform, 20'000, 3, 8);
  FloodIndex::Options o;
  o.layout = GridLayout::Default(3, 64);
  FloodIndex index(o);
  const BuildContext ctx = MakeCtx(t);
  ASSERT_TRUE(index.Build(t, ctx).ok());
  const size_t sort_dim = index.layout().sort_dim();

  // Narrow filter on the sort dimension only.
  Query q(3);
  q.SetRange(sort_dim, 0, 100'000);  // ~10% of the value domain.
  QueryStats stats;
  (void)ExecuteAggregate(index, q, &stats);
  // Refinement should stop us from scanning the whole table.
  EXPECT_LT(stats.points_scanned, t.num_rows() / 2);
  EXPECT_EQ(stats.points_matched, BruteForce(t, q, 0).count);
  EXPECT_GT(stats.refine_ns + stats.index_ns, 0);
}

TEST(FloodIndexTest, ExactRangesSkipChecksOnGridFilteredQueries) {
  const Table t = MakeTable(DataShape::kUniform, 30'000, 3, 9);
  FloodIndex::Options o;
  o.layout = GridLayout::Default(3, 256);
  FloodIndex index(o);
  const BuildContext ctx = MakeCtx(t);
  ASSERT_TRUE(index.Build(t, ctx).ok());
  // Wide filter on one grid dimension: interior columns are exact.
  const size_t g0 = index.layout().grid_dim(0);
  Query q(3);
  q.SetRange(g0, 100'000, 900'000);
  QueryStats stats;
  const AggResult r = ExecuteAggregate(index, q, &stats);
  EXPECT_EQ(r.count, BruteForce(t, q, 0).count);
  EXPECT_GT(stats.points_exact, 0u) << "expected exact interior ranges";
}

TEST(FloodIndexTest, CellModelsReduceNothingButStayCorrect) {
  // PLM refinement vs binary search must agree bit-for-bit.
  const Table t = MakeTable(DataShape::kSkewed, 10'000, 3, 10);
  FloodIndex::Options with_models;
  with_models.layout = GridLayout::Default(3, 16);
  with_models.plm_min_cell_size = 16;
  FloodIndex a(with_models);
  FloodIndex::Options without = with_models;
  without.use_cell_models = false;
  FloodIndex b(without);
  const BuildContext ctx = MakeCtx(t);
  ASSERT_TRUE(a.Build(t, ctx).ok());
  ASSERT_TRUE(b.Build(t, ctx).ok());
  EXPECT_GT(a.num_cell_models(), 0u);
  EXPECT_EQ(b.num_cell_models(), 0u);
  for (uint64_t seed = 0; seed < 30; ++seed) {
    const Query q = RandomQuery(t, 7000 + seed);
    EXPECT_EQ(ExecuteAggregate(a, q, nullptr).count,
              ExecuteAggregate(b, q, nullptr).count);
  }
}

TEST(FloodIndexTest, IndexSizeTracksCellModelBudget) {
  const Table t = MakeTable(DataShape::kUniform, 50'000, 3, 11);
  FloodIndex::Options small_delta;
  small_delta.layout = GridLayout::Default(3, 32);
  small_delta.plm_delta = 2.0;
  FloodIndex::Options big_delta = small_delta;
  big_delta.plm_delta = 500.0;
  FloodIndex a(small_delta);
  FloodIndex b(big_delta);
  const BuildContext ctx = MakeCtx(t);
  ASSERT_TRUE(a.Build(t, ctx).ok());
  ASSERT_TRUE(b.Build(t, ctx).ok());
  EXPECT_GT(a.IndexSizeBytes(), b.IndexSizeBytes());
}

// Zone-map task pruning (ROADMAP scan-kernel open item): cells whose
// sort-dimension zone maps are disjoint with the predicate are skipped
// before refinement, accounted in blocks_skipped.
TEST(FloodIndexTest, ZoneMapPruningSkipsDisjointSortRanges) {
  const Table t = MakeTable(DataShape::kUniform, 20'000, 3, 13);
  FloodIndex::Options o;
  o.layout = GridLayout::Default(3, 64);
  FloodIndex index(o);
  const BuildContext ctx = MakeCtx(t);
  ASSERT_TRUE(index.Build(t, ctx).ok());
  const size_t sort_dim = index.layout().sort_dim();

  // Sort range entirely above the value domain: every cell's zone maps
  // are disjoint, so refinement is skipped everywhere.
  Query above(3);
  above.SetRange(sort_dim, 2'000'000, 3'000'000);
  QueryStats stats;
  EXPECT_EQ(ExecuteAggregate(index, above, &stats).count, 0u);
  EXPECT_GT(stats.blocks_skipped, 0u);
  EXPECT_EQ(stats.points_scanned, 0u);

  Query below(3);
  below.SetRange(sort_dim, kValueMin, -5);
  QueryStats below_stats;
  EXPECT_EQ(ExecuteAggregate(index, below, &below_stats).count, 0u);
  EXPECT_GT(below_stats.blocks_skipped, 0u);

  // Pruning never changes answers on ranges that do intersect.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Query q = RandomQuery(t, 7600 + seed);
    const Value lo = static_cast<Value>(seed * 50'000);
    q.SetRange(sort_dim, lo, lo + 60'000);
    EXPECT_EQ(ExecuteAggregate(index, q, nullptr).count,
              BruteForce(t, q, 0).count)
        << q.ToString();
  }
}

// A grid with far more cells than rows, as learned layouts produce on
// skewed or correlated data: most cells are empty.
TEST(FloodIndexTest, SparseGridAnswersLikeFullScan) {
  const size_t n = 3000;
  for (const bool cdf : {true, false}) {
    SCOPED_TRACE(cdf ? "cdf" : "linear");
    const DataShape shape = cdf ? DataShape::kUniform : DataShape::kDuplicates;
    const Table t = MakeTable(shape, n, 3, 14);
    FloodIndex::Options o;
    o.layout.dim_order = {0, 1, 2};
    o.layout.columns = {512, 256};  // 131072 cells, ~44x the rows.
    o.flatten_mode = cdf ? Flattener::Mode::kCdf : Flattener::Mode::kLinear;
    o.plm_min_cell_size = 8;  // Duplicate-heavy cells get models.
    FloodIndex index(o);
    // The §7.1 ablations walk the cell table per cell instead of per run.
    o.enable_run_merging = false;
    o.enable_exact_ranges = false;
    FloodIndex unmerged(o);
    const BuildContext ctx = MakeCtx(t);
    ASSERT_TRUE(index.Build(t, ctx).ok());
    ASSERT_TRUE(unmerged.Build(t, ctx).ok());
    ASSERT_GE(index.num_cells(), 32 * n);
    if (!cdf) EXPECT_GT(index.num_cell_models(), 0u);

    // The cell table partitions the rows; every empty cell's range is
    // empty and begins where the next occupied cell begins (n after the
    // last one).
    size_t total = 0;
    size_t occupied = 0;
    size_t next_start = n;
    for (size_t c = index.num_cells(); c-- > 0;) {
      const auto [begin, end] = index.CellRange(c);
      EXPECT_EQ(index.CellSize(c), end - begin);
      total += end - begin;
      if (begin == end) {
        EXPECT_EQ(begin, next_start) << "cell " << c;
      } else {
        EXPECT_EQ(end, next_start) << "cell " << c;
        ++occupied;
      }
      next_start = begin;
    }
    EXPECT_EQ(total, n);
    EXPECT_EQ(next_start, 0u);
    EXPECT_EQ(occupied, index.num_occupied_cells());
    EXPECT_LT(occupied, index.num_cells() / 32);

    // Memory follows occupied cells: 2 bits per grid cell, plus at most
    // 16 B per row for row offsets, models and the flattener.
    EXPECT_LE(index.IndexSizeBytes(), index.num_cells() / 4 + 16 * n);

    FullScanIndex oracle;
    ASSERT_TRUE(oracle.Build(t, ctx).ok());
    for (uint64_t seed = 0; seed < 40; ++seed) {
      Query q = RandomQuery(t, 8100 + seed);
      q.set_agg({AggSpec::Kind::kCount, 0});
      const uint64_t count = ExecuteAggregate(oracle, q, nullptr).count;
      EXPECT_EQ(ExecuteAggregate(index, q, nullptr).count, count)
          << q.ToString();
      EXPECT_EQ(ExecuteAggregate(unmerged, q, nullptr).count, count)
          << q.ToString();
      q.set_agg({AggSpec::Kind::kSum, 1});
      EXPECT_EQ(ExecuteAggregate(index, q, nullptr).sum,
                ExecuteAggregate(oracle, q, nullptr).sum)
          << q.ToString();
      CollectVisitor got;
      CollectVisitor want;
      index.Execute(q, got, nullptr);
      oracle.Execute(q, want, nullptr);
      EXPECT_EQ(SortedRows(index, got.rows()), SortedRows(oracle, want.rows()))
          << q.ToString();
    }
  }
}

// Refinement bounds each cell through the sort column's zone maps plus one
// packed block, starting from the cell's PLM prediction when it has one.
// Sort-filtered point and range queries must answer like a full scan for
// cells smaller than one block (sharing blocks with their neighbours) and
// cells spanning many blocks, with cell models on and off.
TEST(FloodIndexTest, SortFilteredQueriesMatchFullScan) {
  const size_t n = 10'000;
  for (const DataShape shape : {DataShape::kUniform, DataShape::kDuplicates,
                                DataShape::kSkewed}) {
    SCOPED_TRACE(testing::DataShapeName(shape));
    const Table t = MakeTable(shape, n, 3, 15);
    const BuildContext ctx = MakeCtx(t);
    FullScanIndex oracle;
    ASSERT_TRUE(oracle.Build(t, ctx).ok());
    const std::vector<Value> sort_values = t.DecodeColumn(2);
    for (const bool small_cells : {true, false}) {
      SCOPED_TRACE(small_cells ? "small cells" : "large cells");
      for (const bool models : {true, false}) {
        SCOPED_TRACE(models ? "models" : "no models");
        FloodIndex::Options o;
        o.layout.dim_order = {0, 1, 2};
        // ~5 rows per cell (under one block), or ~5'000 (about 39 blocks).
        if (small_cells) {
          o.layout.columns = {64, 32};
        } else {
          o.layout.columns = {2, 1};
        }
        o.use_cell_models = models;
        o.plm_min_cell_size = 4;
        FloodIndex index(o);
        ASSERT_TRUE(index.Build(t, ctx).ok());
        ASSERT_EQ(index.layout().sort_dim(), 2u);
        EXPECT_EQ(index.num_cell_models() > 0, models);
        Rng rng(16);
        for (int i = 0; i < 40; ++i) {
          // Even i: a point on the sort dimension (an existing value);
          // odd i: a range. Every third query also filters grid dims.
          Query q = i % 3 == 0 ? RandomQuery(t, 9000 + i) : Query(3);
          const Value a = sort_values[rng.Next() % n];
          const Value b = sort_values[rng.Next() % n];
          const Value lo = i % 2 == 0 ? a : std::min(a, b);
          const Value hi = i % 2 == 0 ? a : std::max(a, b);
          q.SetRange(2, lo, hi);
          q.set_agg({AggSpec::Kind::kSum, 1});
          const AggResult got = ExecuteAggregate(index, q, nullptr);
          const AggResult want = ExecuteAggregate(oracle, q, nullptr);
          EXPECT_EQ(got.count, want.count) << q.ToString();
          EXPECT_EQ(got.sum, want.sum) << q.ToString();
          if (i % 4 != 0) continue;  // Row lists: a sample suffices.
          CollectVisitor got_rows;
          CollectVisitor want_rows;
          index.Execute(q, got_rows, nullptr);
          oracle.Execute(q, want_rows, nullptr);
          const auto got_values = SortedRows(index, got_rows.rows());
          EXPECT_EQ(got_values, SortedRows(oracle, want_rows.rows()))
              << q.ToString();
        }
      }
    }
  }
}

TEST(FloodIndexTest, StatsCountCellsVisited) {
  const Table t = MakeTable(DataShape::kUniform, 10'000, 3, 12);
  FloodIndex::Options o;
  o.layout = GridLayout::Default(3, 100);
  FloodIndex index(o);
  const BuildContext ctx = MakeCtx(t);
  ASSERT_TRUE(index.Build(t, ctx).ok());
  Query q(3);  // Unfiltered: visits every cell.
  QueryStats stats;
  (void)ExecuteAggregate(index, q, &stats);
  EXPECT_EQ(stats.cells_visited, index.num_cells());
  EXPECT_EQ(stats.points_scanned, t.num_rows());
}

}  // namespace
}  // namespace flood
