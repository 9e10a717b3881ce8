#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "query/query.h"
#include "query/workload.h"
#include "tests/test_util.h"

namespace flood {
namespace {

TEST(QueryTest, UnfilteredByDefault) {
  Query q(3);
  EXPECT_EQ(q.num_dims(), 3u);
  EXPECT_EQ(q.NumFiltered(), 0u);
  for (size_t d = 0; d < 3; ++d) EXPECT_FALSE(q.IsFiltered(d));
}

TEST(QueryTest, BuilderComposesFilters) {
  Query q = QueryBuilder(4)
                .Range(0, 10, 20)
                .Equals(2, 5)
                .Range(3, 100, kValueMax)
                .Sum(1)
                .Build();
  EXPECT_TRUE(q.IsFiltered(0));
  EXPECT_FALSE(q.IsFiltered(1));
  EXPECT_TRUE(q.IsFiltered(2));
  EXPECT_TRUE(q.IsFiltered(3));
  EXPECT_EQ(q.NumFiltered(), 3u);
  EXPECT_EQ(q.range(0).lo, 10);
  EXPECT_EQ(q.range(0).hi, 20);
  EXPECT_EQ(q.range(2).lo, 5);
  EXPECT_EQ(q.range(2).hi, 5);
  EXPECT_EQ(q.range(3).hi, kValueMax);
  EXPECT_EQ(q.agg().kind, AggSpec::Kind::kSum);
  EXPECT_EQ(q.agg().dim, 1u);
}

TEST(QueryTest, EmptyRangeDetected) {
  Query q(2);
  q.SetRange(0, 10, 5);
  EXPECT_TRUE(q.IsEmpty());
}

TEST(QueryTest, MatchesChecksAllFilters) {
  StatusOr<Table> t = Table::FromColumns({{1, 5, 9}, {10, 20, 30}});
  ASSERT_TRUE(t.ok());
  Query q = QueryBuilder(2).Range(0, 2, 9).Range(1, 25, 35).Build();
  EXPECT_FALSE(q.Matches(*t, 0));  // dim0=1 out.
  EXPECT_FALSE(q.Matches(*t, 1));  // dim1=20 out.
  EXPECT_TRUE(q.Matches(*t, 2));
}

TEST(QueryTest, ToStringMentionsFilters) {
  Query q = QueryBuilder(3).Range(0, 1, 2).Equals(1, 7).Build();
  const std::string s = q.ToString();
  EXPECT_NE(s.find("d0"), std::string::npos);
  EXPECT_NE(s.find("== 7"), std::string::npos);
  EXPECT_NE(s.find("COUNT"), std::string::npos);
}

TEST(ValueRangeTest, ContainsAndFullRange) {
  ValueRange full;
  EXPECT_TRUE(full.IsFullRange());
  EXPECT_TRUE(full.Contains(0));
  ValueRange r{3, 8};
  EXPECT_TRUE(r.Contains(3));
  EXPECT_TRUE(r.Contains(8));
  EXPECT_FALSE(r.Contains(2));
  EXPECT_FALSE(r.Contains(9));
  EXPECT_FALSE(r.IsEmpty());
  EXPECT_TRUE((ValueRange{5, 4}).IsEmpty());
}

TEST(DataSampleTest, SelectivityMatchesDistribution) {
  // 1000 rows, dim values 0..999.
  std::vector<Value> vals(1000);
  for (size_t i = 0; i < 1000; ++i) vals[i] = static_cast<Value>(i);
  StatusOr<Table> t = Table::FromColumns({vals});
  ASSERT_TRUE(t.ok());
  const DataSample s = DataSample::FromTable(*t, 1000, 1);  // Full sample.
  EXPECT_EQ(s.num_rows(), 1000u);
  EXPECT_NEAR(s.Selectivity(0, {0, 499}), 0.5, 1e-9);
  EXPECT_NEAR(s.Selectivity(0, {0, 99}), 0.1, 1e-9);
  EXPECT_DOUBLE_EQ(s.Selectivity(0, {2000, 3000}), 0.0);
  EXPECT_DOUBLE_EQ(s.Selectivity(0, {500, 400}), 0.0);  // Empty range.
}

TEST(DataSampleTest, SubsampleSizeRespected) {
  const Table t = testing::MakeTable(testing::DataShape::kUniform, 5000, 2, 9);
  const DataSample s = DataSample::FromTable(t, 100, 2);
  EXPECT_EQ(s.num_rows(), 100u);
  EXPECT_EQ(s.num_dims(), 2u);
}

TEST(DataSampleTest, MeasuredSelectivityOnIndependentData) {
  const Table t =
      testing::MakeTable(testing::DataShape::kUniform, 20'000, 2, 10);
  const DataSample s = DataSample::FromTable(t, 20'000, 3);
  Query q = QueryBuilder(2).Range(0, 0, 500'000).Range(1, 0, 500'000).Build();
  EXPECT_NEAR(s.MeasuredQuerySelectivity(q), 0.25, 0.02);
}

// The sample FromTable draws: a partial Fisher-Yates over the row ids,
// the chosen ids sorted, and each dimension's values sorted.
void ReferenceSample(const Table& t, size_t sample_size, uint64_t seed,
                     std::vector<std::vector<Value>>* rows,
                     std::vector<std::vector<Value>>* sorted) {
  const size_t n = t.num_rows();
  const size_t k = std::min(sample_size, n);
  std::vector<RowId> ids(n);
  std::iota(ids.begin(), ids.end(), RowId{0});
  Rng rng(seed);
  for (size_t i = 0; i < k; ++i) {
    const size_t j = i + static_cast<size_t>(rng.UniformInt(
                             0, static_cast<int64_t>(n - i) - 1));
    std::swap(ids[i], ids[j]);
  }
  ids.resize(k);
  std::sort(ids.begin(), ids.end());
  rows->assign(t.num_dims(), {});
  sorted->assign(t.num_dims(), {});
  for (size_t dim = 0; dim < t.num_dims(); ++dim) {
    for (RowId r : ids) (*rows)[dim].push_back(t.Get(r, dim));
    (*sorted)[dim] = (*rows)[dim];
    std::sort((*sorted)[dim].begin(), (*sorted)[dim].end());
  }
}

TEST(DataSampleTest, MatchesComparatorSortReference) {
  // 1000 rows (not a multiple of 64): d0 spans the full signed range with
  // both extremes; d1 holds a handful of duplicated negative and positive
  // values; d2 is constant.
  const size_t n = 1000;
  std::vector<std::vector<Value>> cols(3, std::vector<Value>(n));
  Rng rng(17);
  for (size_t r = 0; r < n; ++r) {
    const uint64_t pick = rng.Next() % 8;
    cols[0][r] = pick == 0   ? std::numeric_limits<Value>::min()
                 : pick == 1 ? std::numeric_limits<Value>::max()
                             : static_cast<Value>(rng.Next());
    cols[1][r] = rng.UniformInt(-3, 3) * 1'000'003;
    cols[2][r] = -7;
  }
  StatusOr<Table> t = Table::FromColumns(cols);
  ASSERT_TRUE(t.ok());
  for (const size_t sample_size : {size_t{1}, size_t{63}, size_t{300},
                                   size_t{999}, n, size_t{5000}}) {
    SCOPED_TRACE("sample_size " + std::to_string(sample_size));
    const DataSample s = DataSample::FromTable(*t, sample_size, 23);
    std::vector<std::vector<Value>> rows;
    std::vector<std::vector<Value>> sorted;
    ReferenceSample(*t, sample_size, 23, &rows, &sorted);
    ASSERT_EQ(s.num_rows(), rows[0].size());
    for (size_t dim = 0; dim < 3; ++dim) {
      for (size_t i = 0; i < s.num_rows(); ++i) {
        ASSERT_EQ(s.Get(i, dim), rows[dim][i]) << "dim " << dim;
      }
      EXPECT_EQ(s.sorted(dim), sorted[dim]) << "dim " << dim;
    }
  }
}

TEST(WorkloadTest, FilterFrequencyAndSelectivity) {
  const Table t = testing::MakeTable(testing::DataShape::kUniform, 1000, 2, 4);
  const DataSample s = DataSample::FromTable(t, 1000, 5);
  Workload w;
  w.Add(QueryBuilder(2).Range(0, 0, 100'000).Build());
  w.Add(QueryBuilder(2).Range(0, 0, 100'000).Range(1, 0, 1'000'000).Build());
  EXPECT_DOUBLE_EQ(w.FilterFrequency(0), 1.0);
  EXPECT_DOUBLE_EQ(w.FilterFrequency(1), 0.5);
  // dim0 filtered tightly in both queries; dim1 loosely in one.
  EXPECT_LT(w.AvgSelectivity(0, s), w.AvgSelectivity(1, s));
}

TEST(WorkloadTest, SplitPartitionsQueries) {
  Workload w;
  for (int i = 0; i < 100; ++i) w.Add(Query(2));
  const auto [train, test] = w.Split(0.7, 42);
  EXPECT_EQ(train.size(), 70u);
  EXPECT_EQ(test.size(), 30u);
}

TEST(WorkloadTest, SampleCapsSize) {
  Workload w;
  for (int i = 0; i < 50; ++i) w.Add(Query(1));
  EXPECT_EQ(w.Sample(10, 1).size(), 10u);
  EXPECT_EQ(w.Sample(99, 1).size(), 50u);
}

}  // namespace
}  // namespace flood
