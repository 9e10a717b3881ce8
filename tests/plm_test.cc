#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "data/distributions.h"
#include "learned/plm.h"
#include "learned/search_util.h"
#include "learned/static_btree.h"

namespace flood {
namespace {

TEST(StaticBTreeTest, FindSegmentMatchesLinearScan) {
  std::vector<Value> keys{-50, 0, 3, 9, 100, 101, 5000};
  const StaticBTree bt(keys);
  for (Value v = -60; v < 5010; v += 7) {
    size_t expected = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] <= v) expected = i;
    }
    EXPECT_EQ(bt.FindSegment(v), expected) << "v=" << v;
  }
}

TEST(StaticBTreeTest, LargeKeySetMultiLevel) {
  std::vector<Value> keys;
  for (Value v = 0; v < 10'000; v += 3) keys.push_back(v);
  const StaticBTree bt(keys);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const Value v = rng.UniformInt(-5, 10'005);
    const size_t got = bt.FindSegment(v);
    const auto it = std::upper_bound(keys.begin(), keys.end(), v);
    const size_t expected =
        it == keys.begin() ? 0 : static_cast<size_t>(it - keys.begin()) - 1;
    EXPECT_EQ(got, expected) << "v=" << v;
  }
}

TEST(GallopTest, LowerAndUpperBoundMatchStd) {
  Rng rng(6);
  std::vector<Value> v = UniformColumn(5000, 0, 500, rng);
  std::sort(v.begin(), v.end());
  const auto get = [&v](size_t i) { return v[i]; };
  for (int i = 0; i < 500; ++i) {
    const Value probe = rng.UniformInt(-5, 505);
    const size_t lb = static_cast<size_t>(
        std::lower_bound(v.begin(), v.end(), probe) - v.begin());
    const size_t ub = static_cast<size_t>(
        std::upper_bound(v.begin(), v.end(), probe) - v.begin());
    // Gallop from various (valid lower-bound) starting points.
    for (size_t from : {size_t{0}, lb / 2, lb}) {
      EXPECT_EQ(GallopLowerBound(get, from, v.size(), probe), lb);
    }
    EXPECT_EQ(BinaryLowerBound(get, 0, v.size(), probe), lb);
    EXPECT_EQ(BinaryUpperBound(get, 0, v.size(), probe), ub);
  }
}

std::vector<Value> SortedData(int kind, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> v;
  switch (kind) {
    case 0:
      v = UniformColumn(n, 0, 10'000'000, rng);
      break;
    case 1:
      v = LognormalColumn(n, 7.0, 2.5, 1.0, rng);
      break;
    case 2:
      v = ZipfColumn(n, 100, 1.3, rng);
      break;
    case 3: {
      // Staggered uniform (Fig. 17): uniform over disjoint intervals.
      v.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        const Value block = static_cast<Value>(i % 10);
        v.push_back(block * 1'000'000 + rng.UniformInt(0, 1000));
      }
      break;
    }
    default:
      v.assign(n, 3);
  }
  std::sort(v.begin(), v.end());
  return v;
}

class PlmPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(PlmPropertyTest, PredictIsLowerBoundOfTrueRank) {
  const auto [kind, delta] = GetParam();
  const std::vector<Value> sorted = SortedData(kind, 20'000, 11);
  const Plm plm = Plm::Train(sorted, delta);
  Rng rng(12);
  for (int i = 0; i < 3000; ++i) {
    const Value v =
        rng.UniformInt(sorted.front() - 100, sorted.back() + 100);
    const size_t truth = static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
    EXPECT_LE(plm.Predict(v), truth) << "v=" << v;
  }
}

TEST_P(PlmPropertyTest, PredictPlusGallopFindsExactBounds) {
  const auto [kind, delta] = GetParam();
  const std::vector<Value> sorted = SortedData(kind, 20'000, 13);
  const Plm plm = Plm::Train(sorted, delta);
  const auto get = [&sorted](size_t i) { return sorted[i]; };
  Rng rng(14);
  for (int i = 0; i < 2000; ++i) {
    const Value v =
        rng.UniformInt(sorted.front() - 100, sorted.back() + 100);
    const size_t lb = static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
    EXPECT_EQ(GallopLowerBound(get, plm.Predict(v), sorted.size(), v), lb);
  }
}

TEST_P(PlmPropertyTest, AverageErrorWithinBudget) {
  const auto [kind, delta] = GetParam();
  const std::vector<Value> sorted = SortedData(kind, 20'000, 15);
  const Plm plm = Plm::Train(sorted, delta);
  // Global average under-estimation over distinct trained values must
  // respect the per-segment budget (so globally too). Predict() floors its
  // estimate to an integer rank, which can add up to 1 to each error.
  double total_err = 0;
  size_t count = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0 && sorted[i] == sorted[i - 1]) continue;
    const size_t pred = plm.Predict(sorted[i]);
    EXPECT_LE(pred, i);
    total_err += static_cast<double>(i - pred);
    ++count;
  }
  EXPECT_LE(total_err / static_cast<double>(count), delta + 1.0);
}

std::string PlmParamName(
    const ::testing::TestParamInfo<std::tuple<int, double>>& info) {
  static constexpr const char* kNames[] = {"Uniform", "Lognormal", "Zipf",
                                           "Staggered", "Constant"};
  return std::string(kNames[std::get<0>(info.param)]) + "_delta" +
         std::to_string(static_cast<int>(std::get<1>(info.param)));
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, PlmPropertyTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 4),
                       ::testing::Values(8.0, 50.0, 200.0)),
    PlmParamName);

TEST(PlmTest, LowerDeltaYieldsMoreSegments) {
  const std::vector<Value> sorted = SortedData(1, 50'000, 21);
  const Plm tight = Plm::Train(sorted, 5.0);
  const Plm loose = Plm::Train(sorted, 500.0);
  EXPECT_GT(tight.num_segments(), loose.num_segments());
  EXPECT_GT(tight.MemoryUsageBytes(), loose.MemoryUsageBytes());
}

TEST(PlmTest, EmptyAndTinyInputs) {
  const Plm empty = Plm::Train({}, 10);
  EXPECT_EQ(empty.Predict(5), 0u);
  const Plm one = Plm::Train({7}, 10);
  EXPECT_EQ(one.Predict(6), 0u);
  EXPECT_EQ(one.Predict(7), 0u);
  EXPECT_LE(one.Predict(8), 1u);
}

}  // namespace
}  // namespace flood
