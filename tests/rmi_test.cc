#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "common/rng.h"
#include "data/distributions.h"
#include "learned/rmi.h"

namespace flood {
namespace {

TEST(LinearModelTest, FitsExactLine) {
  std::vector<double> xs{1, 2, 3, 4};
  std::vector<double> ys{3, 5, 7, 9};  // y = 2x + 1
  const LinearModel m = LinearModel::Fit(xs, ys);
  EXPECT_NEAR(m.slope, 2.0, 1e-9);
  EXPECT_NEAR(m.intercept, 1.0, 1e-9);
  EXPECT_NEAR(m.Predict(10), 21.0, 1e-9);
}

TEST(LinearModelTest, ConstantXFallsBackToMean) {
  const LinearModel m = LinearModel::Fit({5, 5, 5}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(m.slope, 0.0);
  EXPECT_NEAR(m.Predict(5), 2.0, 1e-9);
}

std::vector<Value> MakeSorted(int kind, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Value> v;
  switch (kind) {
    case 0:
      v = UniformColumn(n, -1'000'000, 1'000'000, rng);
      break;
    case 1:
      v = LognormalColumn(n, 6.0, 2.0, 1.0, rng);
      break;
    case 2:
      v = ZipfColumn(n, 40, 1.2, rng);
      break;
    case 3:
      v = ClusteredColumn(n, 6, 0, 10'000'000, 50'000.0, rng);
      break;
    default:
      v.assign(n, 42);  // Constant.
  }
  std::sort(v.begin(), v.end());
  return v;
}

class RmiPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RmiPropertyTest, CdfIsMonotoneAndBounded) {
  const std::vector<Value> sorted = MakeSorted(GetParam(), 20'000, 77);
  const Rmi rmi = Rmi::Train(sorted, 64);
  Rng rng(99);
  double prev = -1.0;
  // Probe a sweep of increasing values straddling the data range.
  std::vector<Value> probes;
  for (int i = 0; i < 2000; ++i) {
    probes.push_back(rng.UniformInt(sorted.front() - 1000,
                                    sorted.back() + 1000));
  }
  std::sort(probes.begin(), probes.end());
  for (Value p : probes) {
    const double c = rmi.Cdf(p);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    EXPECT_GE(c, prev) << "CDF not monotone at " << p;
    prev = c;
  }
}

TEST_P(RmiPropertyTest, LookupBoundsContainTrueRank) {
  const std::vector<Value> sorted = MakeSorted(GetParam(), 10'000, 78);
  const Rmi rmi = Rmi::Train(sorted, 128);
  Rng rng(100);
  for (int i = 0; i < 3000; ++i) {
    const Value v = rng.UniformInt(sorted.front() - 10, sorted.back() + 10);
    const size_t truth = static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), v) - sorted.begin());
    const Rmi::Bounds b = rmi.Lookup(v);
    EXPECT_LE(b.lo, truth);
    EXPECT_GE(b.hi, truth);
    EXPECT_GE(b.pred, b.lo);
    EXPECT_LE(b.pred, b.hi);
  }
}

std::string RmiDistName(const ::testing::TestParamInfo<int>& info) {
  static constexpr const char* kNames[] = {"Uniform", "Lognormal", "Zipf",
                                           "Clustered", "Constant"};
  return kNames[info.param];
}

INSTANTIATE_TEST_SUITE_P(Distributions, RmiPropertyTest,
                         ::testing::Values(0, 1, 2, 3, 4), RmiDistName);

TEST(RmiTest, EmptyInput) {
  const Rmi rmi = Rmi::Train({}, 4);
  EXPECT_EQ(rmi.num_keys(), 0u);
  EXPECT_DOUBLE_EQ(rmi.Cdf(5), 0.0);
}

TEST(RmiTest, SingleKey) {
  const Rmi rmi = Rmi::Train({10}, 4);
  EXPECT_LE(rmi.Cdf(9), rmi.Cdf(10));
  EXPECT_LE(rmi.Cdf(10), rmi.Cdf(11));
  const Rmi::Bounds b = rmi.Lookup(10);
  EXPECT_LE(b.lo, 0u);
  EXPECT_GE(b.hi, 0u);
}

TEST(RmiTest, CdfSeparatesQuartilesOnSkewedData) {
  const std::vector<Value> sorted = MakeSorted(1, 50'000, 5);
  const Rmi rmi = Rmi::Train(sorted, 256);
  // The CDF at the true quartile values should be near 0.25/0.5/0.75.
  EXPECT_NEAR(rmi.Cdf(sorted[12'500]), 0.25, 0.05);
  EXPECT_NEAR(rmi.Cdf(sorted[25'000]), 0.50, 0.05);
  EXPECT_NEAR(rmi.Cdf(sorted[37'500]), 0.75, 0.05);
}

TEST(RmiTest, MemoryGrowsWithLeaves) {
  const std::vector<Value> sorted = MakeSorted(0, 10'000, 6);
  const Rmi small = Rmi::Train(sorted, 8);
  const Rmi large = Rmi::Train(sorted, 512);
  EXPECT_LT(small.MemoryUsageBytes(), large.MemoryUsageBytes());
}

// Routing picks the last knot <= v, leaf 0 below the first knot:
// exactly upper_bound - 1 clamped to 0, for knot counts from 1 to past 64
// and for probes below the first knot, on each knot, between knots and
// above the last.
TEST(RmiTest, LeafIndexIsUpperBoundMinusOne) {
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  Rng rng(5);
  std::vector<Value> data = UniformColumn(5000, -1'000'000, 1'000'000, rng);
  data.push_back(kMin);
  data.push_back(kMax);
  std::sort(data.begin(), data.end());
  for (const size_t leaves : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                              size_t{63}, size_t{64}, size_t{65},
                              size_t{200}}) {
    SCOPED_TRACE("leaves " + std::to_string(leaves));
    for (const bool extremes : {false, true}) {
      const std::vector<Value> sorted =
          extremes ? data
                   : std::vector<Value>(data.begin() + 1, data.end() - 1);
      const Rmi rmi = Rmi::Train(sorted, leaves);
      const std::vector<Value>& knots = rmi.knots();
      ASSERT_EQ(knots.size(), rmi.num_leaves());
      auto reference = [&knots](Value v) {
        const size_t ub = static_cast<size_t>(
            std::upper_bound(knots.begin(), knots.end(), v) - knots.begin());
        return ub == 0 ? size_t{0} : ub - 1;
      };
      std::vector<Value> probes = {kMin, kMax};
      for (const Value k : knots) {
        probes.push_back(k);
        if (k > kMin) probes.push_back(k - 1);
        if (k < kMax) probes.push_back(k + 1);
      }
      for (const Value v : probes) {
        ASSERT_EQ(rmi.LeafIndex(v), reference(v)) << "v=" << v;
      }
    }
  }
}

}  // namespace
}  // namespace flood
