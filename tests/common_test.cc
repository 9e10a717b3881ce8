#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/inline_vec.h"
#include "common/math_util.h"
#include "common/radix_sort.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/timer.h"

namespace flood {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kUnimplemented, StatusCode::kInternal}) {
    EXPECT_FALSE(StatusCodeToString(code).empty());
    EXPECT_NE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v(std::make_unique<int>(7));
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> p = std::move(v).value();
  EXPECT_EQ(*p, 7);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const int64_t v = rng.UniformInt(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(3);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(17);
  double sum = 0;
  double sq = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(29);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(ZipfTest, RankZeroMostFrequent) {
  Rng rng(23);
  ZipfGenerator zipf(50, 1.2);
  std::vector<int> counts(50, 0);
  for (int i = 0; i < 50'000; ++i) counts[zipf.Sample(rng)]++;
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[49]);
  // All samples in range (counts vector would have thrown otherwise).
  int total = 0;
  for (int c : counts) total += c;
  EXPECT_EQ(total, 50'000);
}

TEST(ZipfTest, SkewGrowsWithExponent) {
  Rng rng(31);
  ZipfGenerator flat(100, 0.2);
  ZipfGenerator steep(100, 2.0);
  int flat_zero = 0;
  int steep_zero = 0;
  for (int i = 0; i < 20'000; ++i) {
    if (flat.Sample(rng) == 0) ++flat_zero;
    if (steep.Sample(rng) == 0) ++steep_zero;
  }
  EXPECT_GT(steep_zero, flat_zero * 2);
}

TEST(MathTest, MeanAndQuantile) {
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  std::vector<int> v{5, 1, 4, 2, 3};
  EXPECT_EQ(Quantile(v, 0.0), 1);
  EXPECT_EQ(Quantile(v, 0.5), 3);
  EXPECT_EQ(Quantile(v, 1.0), 5);
}

TEST(MathTest, BitWidth) {
  EXPECT_EQ(BitWidth(0), 0);
  EXPECT_EQ(BitWidth(1), 1);
  EXPECT_EQ(BitWidth(2), 2);
  EXPECT_EQ(BitWidth(255), 8);
  EXPECT_EQ(BitWidth(256), 9);
  EXPECT_EQ(BitWidth(~uint64_t{0}), 64);
}

TEST(MathTest, Clamp) {
  EXPECT_EQ(Clamp(5, 0, 10), 5);
  EXPECT_EQ(Clamp(-1, 0, 10), 0);
  EXPECT_EQ(Clamp(11, 0, 10), 10);
}

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(CeilDiv(0, 3), 0);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double x = 0;
  for (int i = 0; i < 100'000; ++i) x = x + std::sqrt(i);
  EXPECT_GT(sw.ElapsedNanos(), 0);
  const int64_t first = sw.ElapsedNanos();
  EXPECT_GE(sw.ElapsedNanos(), first);
}

TEST(TimerTest, RestartResets) {
  Stopwatch sw;
  volatile double x = 0;
  for (int i = 0; i < 100'000; ++i) x = x + std::sqrt(i);
  const int64_t before = sw.ElapsedNanos();
  sw.Restart();
  EXPECT_LT(sw.ElapsedNanos(), before);
}

TEST(InlineVecTest, StaysInlineUnderCapacity) {
  InlineVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 4; ++i) v.push_back(i * 10);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[static_cast<size_t>(i)], i * 10);
}

TEST(InlineVecTest, SpillsToHeapPreservingContents) {
  InlineVec<uint64_t, 2> v;
  for (uint64_t i = 0; i < 100; ++i) v.push_back(i * i);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_GE(v.capacity(), 100u);
  for (uint64_t i = 0; i < 100; ++i) EXPECT_EQ(v[i], i * i);
  EXPECT_EQ(v.back(), 99u * 99u);
}

TEST(InlineVecTest, RangeForAndClear) {
  InlineVec<size_t, 8> v;
  for (size_t i = 0; i < 20; ++i) v.push_back(i);
  size_t sum = 0;
  for (size_t x : v) sum += x;
  EXPECT_EQ(sum, 190u);
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(7);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 7u);
}

// RadixSort orders keys by bits [lo, hi) only and keeps the input order
// of keys equal there: it must match std::stable_sort on that field, also
// when the bits outside it vary, when the field's width is not a multiple
// of the digit, and when some digits are the same in every key.
TEST(RadixSortTest, MatchesStableSortOnTheField) {
  struct Case {
    unsigned lo;
    unsigned hi;
    unsigned digit_bits;
  };
  Rng rng(31);
  for (const Case c : {Case{0, 64, 16}, Case{32, 55, 11}, Case{3, 40, 7},
                       Case{20, 21, 11}, Case{60, 64, 16}}) {
    SCOPED_TRACE(std::to_string(c.lo) + ".." + std::to_string(c.hi) + "/" +
                 std::to_string(c.digit_bits));
    const uint64_t field_mask =
        c.hi - c.lo == 64 ? ~uint64_t{0} : (uint64_t{1} << (c.hi - c.lo)) - 1;
    auto field = [&](uint64_t key) { return (key >> c.lo) & field_mask; };
    for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{1000}}) {
      std::vector<uint64_t> keys(n);
      for (uint64_t& k : keys) {
        k = rng.Next();
        // Clear a middle band of the field in every key: a constant digit.
        if (c.hi - c.lo > 24) k &= ~(uint64_t{0xFFFF} << (c.lo + 8));
        // Few distinct field values, so equal fields keep their order.
        if (rng.Next() % 2 == 0) {
          k = (k & ~(field_mask << c.lo)) | (field(keys[0]) << c.lo);
        }
      }
      std::vector<uint64_t> want = keys;
      std::stable_sort(want.begin(), want.end(), [&](uint64_t a, uint64_t b) {
        return field(a) < field(b);
      });
      std::vector<uint64_t> scratch;
      RadixSort(&keys, &scratch, c.lo, c.hi, c.digit_bits);
      EXPECT_EQ(keys, want) << "n=" << n;
    }
  }
}

/// The bytewise CRC-32 the slicing-by-8 Crc32 must equal: one table
/// lookup per byte over the reflected IEEE polynomial.
uint32_t BytewiseCrc32(const uint8_t* p, size_t n, uint32_t seed) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, ChainedSeedEqualsOneCall) {
  std::vector<uint8_t> buf(1000);
  Rng rng(5);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  const uint32_t whole = Crc32(buf.data(), buf.size());
  const size_t kCuts[] = {0, 1, 7, 8, 9, 500, 999, 1000};
  for (const size_t cut : kCuts) {
    const uint32_t head = Crc32(buf.data(), cut);
    EXPECT_EQ(Crc32(buf.data() + cut, buf.size() - cut, head), whole)
        << "cut " << cut;
  }
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndAlignment) {
  std::vector<uint8_t> buf(1024 + 8);
  Rng rng(6);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 1024; ++n) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32(p, n, 0), BytewiseCrc32(p, n, 0))
          << "offset " << offset << " length " << n;
      ASSERT_EQ(Crc32(p, n, 0x12345678u), BytewiseCrc32(p, n, 0x12345678u))
          << "offset " << offset << " length " << n;
    }
  }
}

}  // namespace
}  // namespace flood
