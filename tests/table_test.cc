#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/table.h"

namespace flood {
namespace {

TEST(TableTest, FromColumnsBasics) {
  StatusOr<Table> t = Table::FromColumns({{1, 2, 3}, {4, 5, 6}});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 3u);
  EXPECT_EQ(t->num_dims(), 2u);
  EXPECT_EQ(t->Get(0, 0), 1);
  EXPECT_EQ(t->Get(2, 1), 6);
  EXPECT_EQ(t->name(0), "dim0");
  EXPECT_EQ(t->name(1), "dim1");
}

TEST(TableTest, NamedColumns) {
  StatusOr<Table> t = Table::FromColumns({{1}, {2}}, {"a", "b"});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->name(0), "a");
  EXPECT_EQ(t->name(1), "b");
}

TEST(TableTest, RejectsEmptyColumnList) {
  StatusOr<Table> t = Table::FromColumns({});
  EXPECT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, RejectsRaggedColumns) {
  StatusOr<Table> t = Table::FromColumns({{1, 2}, {3}});
  EXPECT_FALSE(t.ok());
}

TEST(TableTest, RejectsNameArityMismatch) {
  StatusOr<Table> t = Table::FromColumns({{1}, {2}}, {"only_one"});
  EXPECT_FALSE(t.ok());
}

TEST(TableTest, MinMaxPrecomputed) {
  StatusOr<Table> t = Table::FromColumns({{5, -2, 9, 0}});
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->min_value(0), -2);
  EXPECT_EQ(t->max_value(0), 9);
}

TEST(TableTest, ReorderPermutesRows) {
  StatusOr<Table> t = Table::FromColumns({{10, 20, 30}, {1, 2, 3}});
  ASSERT_TRUE(t.ok());
  const Table r = t->Reorder({2, 0, 1});
  EXPECT_EQ(r.Get(0, 0), 30);
  EXPECT_EQ(r.Get(1, 0), 10);
  EXPECT_EQ(r.Get(2, 0), 20);
  EXPECT_EQ(r.Get(0, 1), 3);
  // Original untouched.
  EXPECT_EQ(t->Get(0, 0), 10);
}

TEST(TableTest, DecodeColumnMatchesGet) {
  StatusOr<Table> t = Table::FromColumns({{7, 8, 9}});
  ASSERT_TRUE(t.ok());
  const std::vector<Value> col = t->DecodeColumn(0);
  ASSERT_EQ(col.size(), 3u);
  for (size_t i = 0; i < 3; ++i) EXPECT_EQ(col[i], t->Get(i, 0));
}

TEST(TableTest, SerializeRoundTripPreservesEverything) {
  StatusOr<Table> t = Table::FromColumns(
      {{5, -3, 9, 5}, {100, 200, 300, 400}}, {"price", "qty"});
  ASSERT_TRUE(t.ok());

  std::string bytes;
  ByteWriter w(&bytes);
  t->AppendTo(&w);
  ByteReader r(bytes);
  StatusOr<Table> restored = Table::ReadFrom(&r);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(r.remaining(), 0u);
  ASSERT_EQ(restored->num_rows(), t->num_rows());
  ASSERT_EQ(restored->num_dims(), t->num_dims());
  for (size_t d = 0; d < t->num_dims(); ++d) {
    EXPECT_EQ(restored->name(d), t->name(d));
    EXPECT_EQ(restored->min_value(d), t->min_value(d));
    EXPECT_EQ(restored->max_value(d), t->max_value(d));
    EXPECT_EQ(restored->DecodeColumn(d), t->DecodeColumn(d));
  }

  // Truncations never parse.
  for (size_t len = 0; len < bytes.size(); len += 7) {
    ByteReader cut(bytes.data(), len);
    EXPECT_FALSE(Table::ReadFrom(&cut).ok()) << len;
  }
}

TEST(TableTest, MemoryUsageReflectsCompression) {
  std::vector<Value> narrow(10'000);
  for (size_t i = 0; i < narrow.size(); ++i) {
    narrow[i] = 1'000'000 + static_cast<Value>(i % 16);
  }
  StatusOr<Table> compressed = Table::FromColumns({narrow});
  ASSERT_TRUE(compressed.ok());
  EXPECT_LT(compressed->MemoryUsageBytes(),
            compressed->UncompressedBytes() / 4);
}

std::string Pages(const Table& t) {
  std::string bytes;
  ByteWriter w(&bytes);
  t.AppendTo(&w);
  return bytes;
}

/// 1000 rows (7 full blocks and a partial one) of three columns: wide
/// random values with both int64 extremes, a narrow column, a constant.
std::vector<std::vector<Value>> MixedColumns() {
  Rng rng(3);
  std::vector<std::vector<Value>> cols(3, std::vector<Value>(1000));
  for (size_t r = 0; r < 1000; ++r) {
    cols[0][r] = static_cast<Value>(rng.Next());
    cols[1][r] = static_cast<Value>(rng.Next() % 50);
    cols[2][r] = 42;
  }
  cols[0][10] = std::numeric_limits<Value>::min();
  cols[0][11] = std::numeric_limits<Value>::max();
  return cols;
}

TEST(TableTest, ReorderMatchesFromColumnsOfThePermutedDecode) {
  const std::vector<std::vector<Value>> cols = MixedColumns();
  std::vector<RowId> perm(1000);
  std::iota(perm.begin(), perm.end(), RowId{0});
  Rng rng(4);
  for (size_t i = perm.size(); i-- > 1;) {
    std::swap(perm[i], perm[rng.Next() % (i + 1)]);
  }
  StatusOr<Table> t = Table::FromColumns(cols, {"a", "b", "c"});
  ASSERT_TRUE(t.ok());
  std::vector<std::vector<Value>> permuted(3);
  for (size_t d = 0; d < 3; ++d) {
    const std::vector<Value> decoded = t->DecodeColumn(d);
    for (RowId row : perm) permuted[d].push_back(decoded[row]);
  }
  StatusOr<Table> want = Table::FromColumns(permuted, {"a", "b", "c"});
  ASSERT_TRUE(want.ok());
  const Table got = t->Reorder(perm);
  EXPECT_EQ(Pages(got), Pages(*want));
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(got.name(d), want->name(d));
    EXPECT_EQ(got.min_value(d), want->min_value(d));
    EXPECT_EQ(got.max_value(d), want->max_value(d));
  }
}

TEST(TableTest, GatherMatchesFromColumnsOfTheChosenRows) {
  const std::vector<std::vector<Value>> cols = MixedColumns();
  StatusOr<Table> t = Table::FromColumns(cols);
  ASSERT_TRUE(t.ok());
  // Empty, one row, a repeated row, every third row (ascending), and the
  // table backwards.
  std::vector<RowId> thirds;
  for (RowId r = 0; r < 1000; r += 3) thirds.push_back(r);
  std::vector<RowId> backwards(1000);
  std::iota(backwards.rbegin(), backwards.rend(), RowId{0});
  std::vector<std::vector<RowId>> cases = {{}, {11}, {5, 5, 999, 5}};
  cases.push_back(thirds);
  cases.push_back(backwards);
  for (const std::vector<RowId>& rows : cases) {
    SCOPED_TRACE(rows.size());
    std::vector<std::vector<Value>> chosen(3);
    for (size_t d = 0; d < 3; ++d) {
      for (RowId row : rows) chosen[d].push_back(cols[d][row]);
    }
    StatusOr<Table> want = Table::FromColumns(chosen);
    ASSERT_TRUE(want.ok());
    const Table got = t->Gather(rows);
    EXPECT_EQ(got.num_rows(), rows.size());
    EXPECT_EQ(Pages(got), Pages(*want));
    for (size_t d = 0; d < 3; ++d) {
      EXPECT_EQ(got.min_value(d), want->min_value(d));
      EXPECT_EQ(got.max_value(d), want->max_value(d));
    }
  }
}

}  // namespace
}  // namespace flood
