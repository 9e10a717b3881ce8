#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.h"
#include "core/grid_layout.h"

namespace flood {
namespace {

/// A random structurally-valid layout over up to 64 dimensions, biased
/// toward the degenerate shapes that bite in practice: 1-column (excluded)
/// grid dims, single-dim layouts, and no-sort-dim grids.
GridLayout RandomLayout(Rng& rng) {
  const size_t nd = static_cast<size_t>(rng.UniformInt(1, 64));
  GridLayout l;
  l.dim_order.resize(nd);
  std::iota(l.dim_order.begin(), l.dim_order.end(), size_t{0});
  for (size_t i = nd; i-- > 1;) {  // Fisher-Yates with the seeded Rng.
    const size_t j =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i)));
    std::swap(l.dim_order[i], l.dim_order[j]);
  }
  l.use_sort_dim = nd > 1 && rng.NextDouble() < 0.8;
  l.columns.resize(l.NumGridDims());
  for (uint32_t& c : l.columns) {
    const double roll = rng.NextDouble();
    if (roll < 0.3) {
      c = 1;  // Degenerate 1-cell dimension.
    } else if (roll < 0.95) {
      c = static_cast<uint32_t>(rng.UniformInt(2, 1'000'000));
    } else {
      c = 0xFFFFFFFFu;  // Extreme column count still round-trips.
    }
  }
  return l;
}

TEST(GridLayoutTest, DefaultLayoutValid) {
  const GridLayout l = GridLayout::Default(4, 1000);
  EXPECT_TRUE(l.IsValid(4));
  EXPECT_TRUE(l.use_sort_dim);
  EXPECT_EQ(l.NumGridDims(), 3u);
  EXPECT_EQ(l.sort_dim(), 3u);
  // Target ~1000 cells split across 3 dims -> 10 columns each.
  EXPECT_EQ(l.columns.size(), 3u);
  EXPECT_NEAR(static_cast<double>(l.NumCells()), 1000.0, 400.0);
}

TEST(GridLayoutTest, SingleDimDefault) {
  const GridLayout l = GridLayout::Default(1, 100);
  EXPECT_TRUE(l.IsValid(1));
  EXPECT_FALSE(l.use_sort_dim);  // One dim: grid only.
  EXPECT_EQ(l.NumGridDims(), 1u);
}

TEST(GridLayoutTest, NumCellsIsProduct) {
  GridLayout l;
  l.dim_order = {2, 0, 1};
  l.columns = {4, 5};
  l.use_sort_dim = true;
  EXPECT_TRUE(l.IsValid(3));
  EXPECT_EQ(l.NumCells(), 20u);
  EXPECT_EQ(l.sort_dim(), 1u);
  EXPECT_EQ(l.grid_dim(0), 2u);
}

TEST(GridLayoutTest, InvalidLayouts) {
  GridLayout l;
  l.dim_order = {0, 1};
  l.columns = {3};
  l.use_sort_dim = true;
  EXPECT_TRUE(l.IsValid(2));
  EXPECT_FALSE(l.IsValid(3));  // Wrong dim count.

  GridLayout dup;
  dup.dim_order = {0, 0};
  dup.columns = {3};
  EXPECT_FALSE(dup.IsValid(2));  // Not a permutation.

  GridLayout zero;
  zero.dim_order = {0, 1};
  zero.columns = {0};
  EXPECT_FALSE(zero.IsValid(2));  // Zero columns.

  GridLayout wrong_cols;
  wrong_cols.dim_order = {0, 1};
  wrong_cols.columns = {2, 2};
  wrong_cols.use_sort_dim = true;
  EXPECT_FALSE(wrong_cols.IsValid(2));  // Columns must cover grid dims only.
  wrong_cols.use_sort_dim = false;
  EXPECT_TRUE(wrong_cols.IsValid(2));
}

TEST(GridLayoutSerializeTest, RoundTrip) {
  GridLayout l;
  l.dim_order = {2, 0, 3, 1};
  l.columns = {4, 1, 97};
  l.use_sort_dim = true;
  const std::string text = l.Serialize();
  const StatusOr<GridLayout> parsed = GridLayout::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->dim_order, l.dim_order);
  EXPECT_EQ(parsed->columns, l.columns);
  EXPECT_EQ(parsed->use_sort_dim, l.use_sort_dim);
}

TEST(GridLayoutSerializeTest, RoundTripNoSortDim) {
  GridLayout l;
  l.dim_order = {1, 0};
  l.columns = {8, 2};
  l.use_sort_dim = false;
  const StatusOr<GridLayout> parsed = GridLayout::Parse(l.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->use_sort_dim);
  EXPECT_EQ(parsed->NumCells(), 16u);
}

TEST(GridLayoutSerializeTest, RejectsMalformedInput) {
  EXPECT_FALSE(GridLayout::Parse("").ok());
  EXPECT_FALSE(GridLayout::Parse("order=0,1;cols=2").ok());  // No sort.
  EXPECT_FALSE(GridLayout::Parse("order=0,0;cols=2;sort=1").ok());  // Dup.
  EXPECT_FALSE(GridLayout::Parse("order=0,1;cols=2;sort=7").ok());
  EXPECT_FALSE(GridLayout::Parse("order=0,x;cols=2;sort=1").ok());
  EXPECT_FALSE(GridLayout::Parse("bogus=1;order=0;cols=1;sort=0").ok());
  EXPECT_FALSE(GridLayout::Parse("order=0,1;cols=0,2;sort=0").ok());
}

// Layout strings come from index options and snapshots, so integers that
// do not fit their fields must be rejected rather than wrapped.
TEST(GridLayoutSerializeTest, RejectsOutOfRangeIntegers) {
  const auto code = [](const std::string& text) {
    return GridLayout::Parse(text).status().code();
  };
  // 2^32 + 1 columns must not truncate to 1 column.
  EXPECT_EQ(code("order=0,1;cols=4294967297;sort=1"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("order=0,1;cols=4294967295;sort=1"), StatusCode::kOk);
  // 2^64 must not wrap to dimension 0, nor 2^64 + 1 to one column.
  EXPECT_EQ(code("order=18446744073709551616,1;cols=2;sort=1"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("order=0,1;cols=18446744073709551617;sort=1"),
            StatusCode::kInvalidArgument);
}

TEST(GridLayoutTest, NumCellsSaturatesOnOverflow) {
  GridLayout l;
  l.dim_order = {0, 1, 2, 3, 4, 5};
  l.columns = {65536, 65536, 65536, 65536, 1};  // 2^64 cells.
  ASSERT_TRUE(l.IsValid(6));
  EXPECT_EQ(l.NumCells(), UINT64_MAX);
  l.columns = {65536, 65536, 65536, 65535, 1};  // 2^64 - 2^48.
  EXPECT_EQ(l.NumCells(), (uint64_t{65535} << 48));
  l.columns = {0xFFFFFFFFu, 0xFFFFFFFFu, 0xFFFFFFFFu, 2, 1};
  EXPECT_EQ(l.NumCells(), UINT64_MAX);
}

// Snapshots embed Serialize() output, so the round trip is load-bearing:
// Parse(Serialize(L)) must reproduce L exactly for every valid layout,
// including degenerate 1-cell dimensions and the 64-dim maximum.
TEST(GridLayoutSerializeTest, RandomizedRoundTripProperty) {
  Rng rng(20260731);
  for (int iter = 0; iter < 500; ++iter) {
    const GridLayout l = RandomLayout(rng);
    ASSERT_TRUE(l.IsValid(l.num_dims())) << l.ToString();
    const StatusOr<GridLayout> parsed = GridLayout::Parse(l.Serialize());
    ASSERT_TRUE(parsed.ok())
        << l.Serialize() << " -> " << parsed.status().ToString();
    EXPECT_EQ(parsed->dim_order, l.dim_order);
    EXPECT_EQ(parsed->columns, l.columns);
    EXPECT_EQ(parsed->use_sort_dim, l.use_sort_dim);
  }
}

TEST(GridLayoutSerializeTest, MaxDimLayoutRoundTrips) {
  GridLayout l;
  l.dim_order.resize(64);
  std::iota(l.dim_order.begin(), l.dim_order.end(), size_t{0});
  l.use_sort_dim = true;
  l.columns.assign(63, 1);  // All-degenerate grid: a single cell.
  ASSERT_TRUE(l.IsValid(64));
  EXPECT_EQ(l.NumCells(), 1u);
  const StatusOr<GridLayout> parsed = GridLayout::Parse(l.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->dim_order, l.dim_order);
  EXPECT_EQ(parsed->columns, l.columns);
}

// Truncated serializations must never parse: the trailing "sort=" field
// means any strict prefix is structurally incomplete.
TEST(GridLayoutSerializeTest, TruncatedInputsAreRejected) {
  Rng rng(777);
  for (int iter = 0; iter < 20; ++iter) {
    const std::string text = RandomLayout(rng).Serialize();
    for (size_t len = 0; len < text.size(); ++len) {
      const StatusOr<GridLayout> parsed =
          GridLayout::Parse(text.substr(0, len));
      EXPECT_FALSE(parsed.ok())
          << "prefix of length " << len << " of: " << text;
    }
  }
}

// Fuzz-ish byte mutations: Parse must never crash, and whatever it accepts
// must be structurally valid (a flipped digit may legitimately yield a
// different-but-valid layout; garbage must be rejected).
TEST(GridLayoutSerializeTest, MutatedInputsRejectedOrStillValid) {
  Rng rng(778);
  for (int iter = 0; iter < 200; ++iter) {
    std::string text = RandomLayout(rng).Serialize();
    const size_t mutations = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    for (size_t m = 0; m < mutations; ++m) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(text.size()) - 1));
      text[pos] = static_cast<char>(rng.UniformInt(32, 126));
    }
    const StatusOr<GridLayout> parsed = GridLayout::Parse(text);
    if (parsed.ok()) {
      EXPECT_TRUE(parsed->IsValid(parsed->num_dims())) << text;
    }
  }
}

TEST(GridLayoutTest, ToStringMentionsDims) {
  GridLayout l;
  l.dim_order = {1, 0};
  l.columns = {8};
  l.use_sort_dim = true;
  const std::string s = l.ToString();
  EXPECT_NE(s.find("d1:8"), std::string::npos);
  EXPECT_NE(s.find("sort=d0"), std::string::npos);
}

}  // namespace
}  // namespace flood
