#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/knn.h"
#include "tests/test_util.h"

namespace flood {
namespace {

using testing::DataShape;
using testing::MakeTable;

std::vector<double> BruteForceKnnDistances(const Table& t,
                                           const std::vector<Value>& point,
                                           const std::vector<size_t>& dims,
                                           size_t k) {
  std::vector<double> d2;
  d2.reserve(t.num_rows());
  for (RowId r = 0; r < t.num_rows(); ++r) {
    double total = 0;
    for (size_t dim : dims) {
      const double diff = static_cast<double>(point[dim]) -
                          static_cast<double>(t.Get(r, dim));
      total += diff * diff;
    }
    d2.push_back(total);
  }
  std::sort(d2.begin(), d2.end());
  d2.resize(std::min(k, d2.size()));
  for (auto& v : d2) v = std::sqrt(v);
  return d2;
}

class KnnTest
    : public ::testing::TestWithParam<std::tuple<DataShape, size_t>> {};

TEST_P(KnnTest, MatchesBruteForceDistances) {
  const auto [shape, k] = GetParam();
  const Table t = MakeTable(shape, 4000, 3, 31);
  FloodIndex::Options o;
  o.layout.dim_order = {0, 1, 2};
  o.layout.columns = {12, 12};
  FloodIndex index(o);
  BuildContext ctx;
  ASSERT_TRUE(index.Build(t, ctx).ok());

  const std::vector<size_t> dims{0, 1};
  const KnnEngine engine(&index, dims);
  Rng rng(32);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<Value> point(3);
    for (size_t d = 0; d < 3; ++d) {
      point[d] = rng.UniformInt(t.min_value(d) - 100, t.max_value(d) + 100);
    }
    const auto got = engine.Search(point, k);
    // Oracle over the *reordered* data (row ids refer to storage order).
    const auto want =
        BruteForceKnnDistances(index.data(), point, dims, k);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, want[i], 1e-6)
          << "neighbor " << i << " of " << k;
    }
    // Neighbors must be real rows with consistent distances.
    for (const auto& nb : got) {
      double total = 0;
      for (size_t dim : dims) {
        const double diff =
            static_cast<double>(point[dim]) -
            static_cast<double>(index.data().Get(nb.row, dim));
        total += diff * diff;
      }
      EXPECT_NEAR(std::sqrt(total), nb.distance, 1e-6);
    }
  }
}

std::string KnnParamName(
    const ::testing::TestParamInfo<std::tuple<DataShape, size_t>>& info) {
  return std::string(testing::DataShapeName(std::get<0>(info.param))) + "_k" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndK, KnnTest,
    ::testing::Combine(::testing::Values(DataShape::kUniform,
                                         DataShape::kSkewed,
                                         DataShape::kClustered,
                                         DataShape::kDuplicates),
                       ::testing::Values(size_t{1}, size_t{5}, size_t{32})),
    KnnParamName);

// A grid with far more cells than rows: the ring walk crosses mostly empty
// cells, whose CellRange is empty.
TEST(KnnEdgeTest, SparseGridMatchesBruteForce) {
  const Table t = MakeTable(DataShape::kClustered, 3000, 3, 36);
  FloodIndex::Options o;
  o.layout.dim_order = {0, 1, 2};
  o.layout.columns = {512, 256};  // 131072 cells, ~44x the rows.
  FloodIndex index(o);
  BuildContext ctx;
  ASSERT_TRUE(index.Build(t, ctx).ok());
  ASSERT_GE(index.num_cells(), 32 * t.num_rows());
  ASSERT_LT(index.num_occupied_cells(), t.num_rows());

  const std::vector<size_t> dims{0, 1};
  const KnnEngine engine(&index, dims);
  Rng rng(37);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Value> point(3);
    for (size_t d = 0; d < 3; ++d) {
      point[d] = rng.UniformInt(t.min_value(d) - 100, t.max_value(d) + 100);
    }
    for (size_t k : {size_t{1}, size_t{8}}) {
      const auto got = engine.Search(point, k);
      const auto want = BruteForceKnnDistances(index.data(), point, dims, k);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i].distance, want[i], 1e-6)
            << "neighbor " << i << " of " << k;
      }
    }
  }
}

TEST(KnnEdgeTest, KLargerThanTable) {
  const Table t = MakeTable(DataShape::kUniform, 20, 2, 33);
  FloodIndex::Options o;
  o.layout.dim_order = {0, 1};
  o.layout.columns = {4};
  FloodIndex index(o);
  BuildContext ctx;
  ASSERT_TRUE(index.Build(t, ctx).ok());
  const KnnEngine engine(&index);
  const auto got = engine.Search({500'000, 500'000}, 100);
  EXPECT_EQ(got.size(), 20u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_GE(got[i].distance, got[i - 1].distance);
  }
}

TEST(KnnEdgeTest, ExactPointQueryFindsItself) {
  const Table t = MakeTable(DataShape::kUniform, 3000, 2, 34);
  FloodIndex::Options o;
  o.layout.dim_order = {0, 1};
  o.layout.columns = {16};
  FloodIndex index(o);
  BuildContext ctx;
  ASSERT_TRUE(index.Build(t, ctx).ok());
  const KnnEngine engine(&index);
  // Query exactly at a stored point: nearest distance must be 0.
  const std::vector<Value> point{index.data().Get(1234, 0),
                                 index.data().Get(1234, 1)};
  const auto got = engine.Search(point, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0].distance, 0.0);
}

TEST(KnnEdgeTest, RingPruningVisitsFewCellsOnEasyQueries) {
  const Table t = MakeTable(DataShape::kUniform, 50'000, 2, 35);
  FloodIndex::Options o;
  o.layout.dim_order = {0, 1};
  o.layout.columns = {128};
  FloodIndex index(o);
  BuildContext ctx;
  ASSERT_TRUE(index.Build(t, ctx).ok());
  const KnnEngine engine(&index, {0});
  (void)engine.Search({500'000, 0}, 4);
  // 1-D distance over a 128-column grid: a handful of columns suffices.
  EXPECT_LT(engine.last_cells_visited(), 16u);
}

}  // namespace
}  // namespace flood
