#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "common/rng.h"
#include "common/simd_level.h"
#include "data/distributions.h"
#include "storage/column.h"

namespace flood {
namespace {

class ColumnRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ColumnRoundTripTest, UniformValues) {
  const size_t n = GetParam();
  Rng rng(42);
  std::vector<Value> values = UniformColumn(n, -1'000'000, 1'000'000, rng);
  const Column col = Column::FromValues(values);
  ASSERT_EQ(col.size(), n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(col.Get(i), values[i]) << i;
  EXPECT_EQ(col.Decode(), values);
}

TEST_P(ColumnRoundTripTest, SkewedValues) {
  const size_t n = GetParam();
  Rng rng(43);
  std::vector<Value> values = LognormalColumn(n, 8.0, 2.0, 1.0, rng);
  const Column col = Column::FromValues(values);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(col.Get(i), values[i]) << i;
}

TEST_P(ColumnRoundTripTest, ConstantValues) {
  const size_t n = GetParam();
  std::vector<Value> values(n, 7777);
  const Column col = Column::FromValues(values);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(col.Get(i), 7777) << i;
}

TEST_P(ColumnRoundTripTest, ExtremeValues) {
  const size_t n = GetParam();
  Rng rng(44);
  std::vector<Value> values(n);
  for (auto& v : values) {
    const double roll = rng.NextDouble();
    if (roll < 0.3) {
      v = kValueMin;
    } else if (roll < 0.6) {
      v = kValueMax;
    } else {
      v = rng.UniformInt(kValueMin, kValueMax);
    }
  }
  const Column col = Column::FromValues(values);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(col.Get(i), values[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ColumnRoundTripTest,
                         ::testing::Values(size_t{1}, size_t{127},
                                           size_t{128}, size_t{129},
                                           size_t{1000}, size_t{4096}),
                         [](const auto& info) {
                           return std::to_string(info.param);
                         });

TEST(ColumnTest, ForEachMatchesGet) {
  Rng rng(45);
  std::vector<Value> values = UniformColumn(5000, 0, 1000, rng);
  const Column col = Column::FromValues(values);
  // Sub-range not aligned to block boundaries.
  size_t calls = 0;
  col.ForEach(100, 4321, [&](size_t i, Value v) {
    EXPECT_EQ(v, values[i]);
    ++calls;
  });
  EXPECT_EQ(calls, 4321u - 100u);
}

TEST(ColumnTest, ForEachEmptyRange) {
  const Column col =
      Column::FromValues(std::vector<Value>{1, 2, 3});
  size_t calls = 0;
  col.ForEach(2, 2, [&](size_t, Value) { ++calls; });
  EXPECT_EQ(calls, 0u);
}

TEST(ColumnTest, BlockDeltaCompressesNarrowData) {
  Rng rng(46);
  // Values in a narrow band: deltas fit in few bits.
  std::vector<Value> values = UniformColumn(100'000, 1'000'000, 1'000'255,
                                            rng);
  const Column compressed = Column::FromValues(values);
  EXPECT_LT(compressed.MemoryUsageBytes(),
            values.size() * sizeof(Value) / 4);
}

TEST(ColumnBlockTest, DecodeBlockIntoMatchesGet) {
  Rng rng(47);
  // 4 full blocks plus a partial tail; wide value range.
  std::vector<Value> values =
      UniformColumn(4 * Column::kBlockSize + 61, -1'000'000'000,
                    1'000'000'000, rng);
  const Column col = Column::FromValues(values);
  Value buf[Column::kBlockSize];
  size_t covered = 0;
  for (size_t b = 0; b < col.NumBlocks(); ++b) {
    const size_t n = col.DecodeBlockInto(b, buf);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(buf[i], values[b * Column::kBlockSize + i]) << b << ":" << i;
    }
    covered += n;
  }
  EXPECT_EQ(covered, values.size());
}

TEST(ColumnBlockTest, DecodeBlockIntoAllWidths) {
  Rng rng(48);
  for (uint32_t w = 0; w <= 64; ++w) {
    std::vector<Value> values(Column::kBlockSize + 17);
    const uint64_t mask =
        w == 0 ? 0 : (w >= 64 ? ~uint64_t{0} : (uint64_t{1} << w) - 1);
    const Value base = w >= 64 ? kValueMin : -123'456;
    for (size_t i = 0; i < values.size(); ++i) {
      uint64_t delta = rng.Next() & mask;
      if (i == 0) delta = 0;
      if (i == 1) delta = mask;  // Pin the block's delta width to w.
      values[i] = static_cast<Value>(static_cast<uint64_t>(base) + delta);
    }
    const Column col = Column::FromValues(values);
    Value buf[Column::kBlockSize];
    for (size_t b = 0; b < col.NumBlocks(); ++b) {
      const size_t n = col.DecodeBlockInto(b, buf);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(buf[i], values[b * Column::kBlockSize + i])
            << "w=" << w << " " << b << ":" << i;
      }
    }
  }
}

// DecodeBlockInto under every ISA tier the hardware has (scalar unpacker,
// AVX2 8-lane and AVX-512 16-lane/8-lane vector decode) against per-value
// Get: every width 0..64, blocks that start at INT64_MIN or end at
// INT64_MAX, full columns and trailing partial blocks of every group
// remainder. A partial block's decode must write exactly its values, and
// Decode() (which sizes its vector to the column) must match too.
TEST(ColumnBlockTest, VectorDecodeMatchesGetAtEveryTier) {
  constexpr size_t kB = Column::kBlockSize;
  constexpr Value kSentinel = 0x5a5a5a5a;
  std::vector<simd::SimdLevel> levels;
  for (simd::SimdLevel level : {simd::SimdLevel::kScalar,
                                simd::SimdLevel::kAvx2,
                                simd::SimdLevel::kAvx512}) {
    if (level <= simd::DetectedSimdLevel()) levels.push_back(level);
  }
  const simd::SimdLevel saved = simd::ActiveSimdLevel();
  Rng rng(50);
  for (uint32_t w = 0; w <= 64; ++w) {
    const uint64_t mask =
        w == 0 ? 0 : (w >= 64 ? ~uint64_t{0} : (uint64_t{1} << w) - 1);
    for (const bool at_max : {false, true}) {
      // The block's smallest value: INT64_MIN, or what puts its largest at
      // INT64_MAX.
      const uint64_t base =
          at_max ? static_cast<uint64_t>(kValueMax) - mask
                 : static_cast<uint64_t>(kValueMin);
      for (const size_t tail : {0, 1, 7, 8, 9, 15, 16, 17, 100, 127}) {
        const size_t n = 2 * kB + tail;
        SCOPED_TRACE("w=" + std::to_string(w) + " at_max=" +
                     std::to_string(at_max) + " n=" + std::to_string(n));
        std::vector<Value> values(n);
        for (size_t i = 0; i < n; ++i) {
          uint64_t delta = rng.Next() & mask;
          if (i % kB == 0) delta = 0;
          if (i % kB == 1) delta = mask;  // Pin every block's width to w.
          values[i] = static_cast<Value>(base + delta);
        }
        const Column col = Column::FromValues(values);
        for (simd::SimdLevel level : levels) {
          SCOPED_TRACE(simd::SimdLevelName(level));
          simd::SetSimdLevelForTest(level);
          for (size_t b = 0; b < col.NumBlocks(); ++b) {
            Value buf[kB];
            std::fill(buf, buf + kB, kSentinel);
            const size_t got = col.DecodeBlockInto(b, buf);
            ASSERT_EQ(got, std::min(kB, n - b * kB));
            for (size_t i = 0; i < got; ++i) {
              ASSERT_EQ(buf[i], col.Get(b * kB + i)) << b << ":" << i;
              ASSERT_EQ(buf[i], values[b * kB + i]) << b << ":" << i;
            }
            for (size_t i = got; i < kB; ++i) {
              ASSERT_EQ(buf[i], kSentinel) << "wrote past the block: " << i;
            }
          }
          ASSERT_EQ(col.Decode(), values);
        }
      }
    }
  }
  simd::SetSimdLevelForTest(saved);
}

TEST(ColumnBlockTest, ZoneMapsCoverBlockExtremes) {
  Rng rng(49);
  std::vector<Value> values =
      UniformColumn(3 * Column::kBlockSize + 5, -500, 500, rng);
  const Column col = Column::FromValues(values);
  ASSERT_EQ(col.NumBlocks(), 4u);
  for (size_t b = 0; b < col.NumBlocks(); ++b) {
    const size_t begin = b * Column::kBlockSize;
    const size_t end = std::min(values.size(), begin + Column::kBlockSize);
    const auto [mn, mx] =
        std::minmax_element(values.begin() + static_cast<ptrdiff_t>(begin),
                            values.begin() + static_cast<ptrdiff_t>(end));
    EXPECT_EQ(col.BlockMin(b), *mn) << b;
    EXPECT_EQ(col.BlockMax(b), *mx) << b;
  }
}

// ---------------------------------------------------------------------------
// LowerBound / UpperBound over a sorted run inside an unsorted column.
// ---------------------------------------------------------------------------

/// Checks both bound searches of every probe against std::lower_bound /
/// std::upper_bound over the decoded run [begin, end), starting each
/// search from `begin`, from the answer itself and from random hints in
/// between.
void ExpectBoundsMatch(const Column& col, size_t begin, size_t end,
                       const std::vector<Value>& probes, Rng& rng) {
  SCOPED_TRACE("run " + std::to_string(begin) + ".." + std::to_string(end));
  const std::vector<Value> decoded = col.Decode();
  const auto first = decoded.begin() + static_cast<ptrdiff_t>(begin);
  const auto last = decoded.begin() + static_cast<ptrdiff_t>(end);
  const auto index_of = [&decoded](auto it) {
    return static_cast<size_t>(it - decoded.begin());
  };
  ASSERT_TRUE(std::is_sorted(first, last));
  for (const Value v : probes) {
    const size_t lb = index_of(std::lower_bound(first, last, v));
    const size_t ub = index_of(std::upper_bound(first, last, v));
    for (int h = 0; h < 6; ++h) {
      // Hint 0 is the run's first row, hint 1 the answer itself.
      size_t lb_hint = h == 0 ? begin : lb;
      size_t ub_hint = h == 0 ? begin : ub;
      if (h >= 2) {
        lb_hint = begin + rng.Next() % (lb - begin + 1);
        ub_hint = begin + rng.Next() % (ub - begin + 1);
      }
      ASSERT_EQ(col.LowerBound(lb_hint, end, v), lb) << v << " @" << lb_hint;
      ASSERT_EQ(col.UpperBound(ub_hint, end, v), ub) << v << " @" << ub_hint;
    }
  }
}

/// Every run value, its neighbours, and the domain's extremes.
std::vector<Value> ProbesFor(const std::vector<Value>& values, size_t begin,
                             size_t end) {
  std::vector<Value> probes{kValueMin, kValueMax};
  for (size_t i = begin; i < end; ++i) {
    probes.push_back(values[i]);
    if (values[i] > kValueMin) probes.push_back(values[i] - 1);
    if (values[i] < kValueMax) probes.push_back(values[i] + 1);
  }
  return probes;
}

// A sorted run [begin, end) between unsorted neighbours that share its
// first and last blocks, with every block's delta width pinned to w. The
// leading neighbour holds its block's maximum while the run's values in
// that block stay in its lower half, so the zone map sends the search into
// the first block even when the answer lies beyond it.
TEST(ColumnBoundTest, SortedRunBetweenUnsortedNeighboursAllWidths) {
  constexpr size_t kB = Column::kBlockSize;
  for (uint32_t w = 0; w <= 64; ++w) {
    SCOPED_TRACE("w=" + std::to_string(w));
    Rng rng(500 + w);
    const uint64_t mask =
        w == 0 ? 0 : (w >= 64 ? ~uint64_t{0} : (uint64_t{1} << w) - 1);
    // Blocks whose value spans [base_k, base_k + mask] stack without
    // overlap: 6 blocks, fewer where 2^w spans would overflow int64.
    const size_t blocks = w >= 62 ? (size_t{1} << (64 - w)) : 6;
    const size_t n = (blocks - 1) * kB + 37;  // Partial final block.
    const size_t begin = blocks == 1 ? 11 : 45;
    const size_t end = blocks == 1 ? 30 : n - 9;
    const auto at = [mask](size_t block, uint64_t delta) {
      const uint64_t base = static_cast<uint64_t>(kValueMin);
      return static_cast<Value>(base + block * (mask + 1) + delta);
    };
    std::vector<Value> values(n);
    for (size_t i = 0; i < n; ++i) {
      values[i] = at(i / kB, rng.Next() & mask);
    }
    // The run: sorted deltas per block; in the first block only the lower
    // half of the span.
    for (size_t b = begin / kB; b <= (end - 1) / kB; ++b) {
      const size_t lo = std::max(begin, b * kB);
      const size_t hi = std::min(end, (b + 1) * kB);
      std::vector<uint64_t> deltas(hi - lo);
      for (uint64_t& d : deltas) {
        d = rng.Next() & (b == begin / kB ? mask >> 1 : mask);
      }
      std::sort(deltas.begin(), deltas.end());
      for (size_t i = lo; i < hi; ++i) values[i] = at(b, deltas[i - lo]);
    }
    // Pin every block's width to w: each holds delta 0 and delta mask,
    // the neighbours' rows in the shared first and last blocks, the run's
    // own ends in the blocks it fills.
    for (size_t b = 0; b < blocks; ++b) {
      const size_t lo = b * kB;
      const size_t hi = std::min(n, lo + kB);
      if (lo >= begin && hi <= end) {
        values[lo] = at(b, 0);
        values[hi - 1] = at(b, mask);
      } else if (lo < begin) {
        values[lo] = at(b, 0);
        values[lo + 1] = at(b, mask);
      } else {
        values[hi - 2] = at(b, 0);
        values[hi - 1] = at(b, mask);
      }
    }
    const Column col = Column::FromValues(values);
    ExpectBoundsMatch(col, begin, end, ProbesFor(values, begin, end), rng);
  }
}

// Duplicate runs straddling block boundaries (including whole width-0
// blocks of one value) between unsorted neighbours, and runs smaller than
// a block.
TEST(ColumnBoundTest, DuplicatesStraddlingBlocks) {
  constexpr size_t kB = Column::kBlockSize;
  Rng rng(77);
  const size_t n = 9 * kB + 5;
  const size_t kRepeats[] = {1, 3, 127, 128, 129, 300};
  for (const size_t repeat : kRepeats) {
    SCOPED_TRACE("repeat=" + std::to_string(repeat));
    std::vector<Value> values(n);
    for (Value& v : values) v = static_cast<Value>(rng.Next() % 100'000);
    const size_t begin = 70;
    const size_t end = n - 40;
    for (size_t i = begin; i < end; ++i) {
      values[i] = -5'000 + static_cast<Value>((i - begin) / repeat) * 7;
    }
    const Column col = Column::FromValues(values);
    const auto check_run = [&](size_t b, size_t e) {
      ExpectBoundsMatch(col, b, e, ProbesFor(values, b, e), rng);
    };
    check_run(begin, end);
    // Sub-runs: inside one block, across one boundary, and empty.
    check_run(kB + 3, kB + 40);
    check_run(2 * kB - 9, 2 * kB + 9);
    check_run(300, 300);
  }
}

TEST(ColumnTest, EmptyColumn) {
  const Column col = Column::FromValues({});
  EXPECT_EQ(col.size(), 0u);
  EXPECT_TRUE(col.empty());
  EXPECT_TRUE(col.Decode().empty());
}

// Serialization (the snapshot substrate): AppendTo -> ReadFrom must be
// bit-exact across value shapes and partial trailing blocks.
TEST(ColumnSerializeTest, AppendReadRoundTripIsExact) {
  Rng rng(44);
  for (const size_t n : {size_t{1}, size_t{127}, size_t{128}, size_t{129},
                         size_t{5000}}) {
    std::vector<Value> values = UniformColumn(n, -1'000'000, 1'000'000, rng);
    values[0] = kValueMin;  // Exercise the width-64 extreme-range path.
    if (n > 1) values[1] = kValueMax;
    const Column col = Column::FromValues(values);

    std::string bytes;
    ByteWriter w(&bytes);
    col.AppendTo(&w);
    ByteReader r(bytes);
    StatusOr<Column> restored = Column::ReadFrom(&r);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
    ASSERT_EQ(restored->size(), n);
    EXPECT_EQ(restored->Decode(), values);
    EXPECT_EQ(restored->MemoryUsageBytes(), col.MemoryUsageBytes());
    for (size_t b = 0; b < col.NumBlocks(); ++b) {
      EXPECT_EQ(restored->BlockMin(b), col.BlockMin(b));
      EXPECT_EQ(restored->BlockMax(b), col.BlockMax(b));
    }
  }
}

/// The AppendTo pages of a column as the per-value packer
/// wrote them: each delta OR-ed in at bit offset + (i % 128) * width,
/// spilling into the next word, plus the one serialized slack word.
std::string PerValuePackedPages(const std::vector<Value>& values) {
  const size_t n = values.size();
  const size_t blocks = (n + Column::kBlockSize - 1) / Column::kBlockSize;
  std::vector<Value> mins(blocks);
  std::vector<Value> maxs(blocks);
  std::vector<uint32_t> widths(blocks);
  std::vector<uint64_t> offsets(blocks);
  uint64_t total_bits = 0;
  for (size_t b = 0; b < blocks; ++b) {
    const size_t begin = b * Column::kBlockSize;
    const size_t end = std::min(n, begin + Column::kBlockSize);
    mins[b] = *std::min_element(values.begin() + begin, values.begin() + end);
    maxs[b] = *std::max_element(values.begin() + begin, values.begin() + end);
    const uint64_t span =
        static_cast<uint64_t>(maxs[b]) - static_cast<uint64_t>(mins[b]);
    widths[b] = static_cast<uint32_t>(std::bit_width(span));
    offsets[b] = total_bits;
    total_bits += Column::kBlockSize * widths[b];
  }
  std::vector<uint64_t> words((total_bits + 63) / 64 + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    const size_t b = i / Column::kBlockSize;
    const uint32_t width = widths[b];
    if (width == 0) continue;
    const uint64_t delta =
        static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(mins[b]);
    const uint64_t bit = offsets[b] + (i % Column::kBlockSize) * width;
    const uint32_t shift = static_cast<uint32_t>(bit & 63);
    words[bit >> 6] |= delta << shift;
    if (shift + width > 64) words[(bit >> 6) + 1] |= delta >> (64 - shift);
  }
  std::string out;
  ByteWriter w(&out);
  w.PutU8(1);
  w.PutU64(n);
  for (Value v : mins) w.PutI64(v);
  for (Value v : maxs) w.PutI64(v);
  for (uint32_t width : widths) w.PutU8(static_cast<uint8_t>(width));
  w.PutU64(words.size());
  for (uint64_t word : words) w.PutU64(word);
  return out;
}

TEST(ColumnSerializeTest, BlockPackerMatchesPerValuePacker) {
  // Block b has width b (0..64), block 65 holds INT64_MIN and INT64_MAX
  // beside each other, and the last block is partial.
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  Rng rng(17);
  std::vector<Value> values;
  for (uint32_t width = 0; width <= 64; ++width) {
    const uint64_t span =
        width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    // Below 64 bits, centred on 0: base + span stays in the int64 range.
    Value base = kMin;
    if (width < 64) base = -static_cast<Value>(span / 2 + rng.Next() % 1000);
    for (size_t i = 0; i < Column::kBlockSize; ++i) {
      const uint64_t delta = i == 7 ? span : rng.Next() & span;
      values.push_back(static_cast<Value>(static_cast<uint64_t>(base) + delta));
    }
  }
  for (size_t i = 0; i < Column::kBlockSize; ++i) {
    values.push_back(i % 3 == 0 ? kMin : i % 3 == 1 ? kMax : 0);
  }
  for (size_t i = 0; i < 77; ++i) {
    values.push_back(static_cast<Value>(rng.Next() % 1000) - 500);
  }

  // Every prefix length ending inside, at, or one past a block boundary,
  // so each width also appears as the partial last block.
  for (size_t n = 0; n <= values.size(); ++n) {
    const size_t in_block = n % Column::kBlockSize;
    const bool boundary = in_block <= 1 || in_block == 63 || in_block == 100;
    if (!boundary && n != values.size()) continue;
    const std::vector<Value> prefix(values.begin(), values.begin() + n);
    const Column col = Column::FromValues(prefix);
    std::string got;
    ByteWriter w(&got);
    col.AppendTo(&w);
    ASSERT_EQ(got, PerValuePackedPages(prefix)) << "n " << n;
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(col.Get(i), prefix[i]);
  }
}

TEST(ColumnSerializeTest, TruncatedAndCorruptPagesAreRejected) {
  Rng rng(45);
  std::vector<Value> values = UniformColumn(1000, 0, 1 << 20, rng);
  const Column col = Column::FromValues(values);
  std::string bytes;
  ByteWriter w(&bytes);
  col.AppendTo(&w);

  for (const size_t len : {size_t{0}, size_t{5}, bytes.size() / 2,
                           bytes.size() - 1}) {
    ByteReader r(bytes.data(), len);
    EXPECT_FALSE(Column::ReadFrom(&r).ok()) << len;
  }
  // An impossible bit width must be rejected structurally.
  std::string mutated = bytes;
  const size_t width_offset = 1 + 8 + 2 * 8 * col.NumBlocks();
  mutated[width_offset] = 65;
  ByteReader r(mutated);
  EXPECT_FALSE(Column::ReadFrom(&r).ok());

  // The leading encoding byte is always 1 (block-delta); any other value
  // is corrupt.
  for (const uint8_t encoding : {uint8_t{0}, uint8_t{2}}) {
    std::string other = bytes;
    other[0] = static_cast<char>(encoding);
    ByteReader er(other);
    const StatusOr<Column> got = Column::ReadFrom(&er);
    ASSERT_FALSE(got.ok()) << int{encoding};
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);
  }

  // A near-2^64 size would wrap the block count to zero and bypass every
  // per-block bound; it must be rejected before any allocation.
  for (const uint64_t size :
       {~uint64_t{0}, ~uint64_t{0} - 100, uint64_t{1} << 60}) {
    std::string huge;
    ByteWriter hw(&huge);
    hw.PutU8(1);  // The block-delta encoding byte.
    hw.PutU64(size);
    hw.PutU64(0);  // A few plausible trailing bytes.
    ByteReader hr(huge);
    EXPECT_FALSE(Column::ReadFrom(&hr).ok()) << size;
  }
}

TEST(PrefixSumsTest, RangeSums) {
  PrefixSums sums({1, 2, 3, 4, 5});
  EXPECT_EQ(sums.RangeSum(0, 5), 15);
  EXPECT_EQ(sums.RangeSum(1, 3), 5);
  EXPECT_EQ(sums.RangeSum(2, 2), 0);
  EXPECT_EQ(sums.RangeSum(4, 5), 5);
}

TEST(PrefixSumsTest, NegativeValues) {
  PrefixSums sums({-5, 10, -3});
  EXPECT_EQ(sums.RangeSum(0, 3), 2);
  EXPECT_EQ(sums.RangeSum(0, 1), -5);
}

TEST(PrefixSumsTest, EmptyIsEmpty) {
  PrefixSums sums;
  EXPECT_TRUE(sums.empty());
  PrefixSums sums2(std::vector<Value>{});
  EXPECT_TRUE(sums2.empty());
}

}  // namespace
}  // namespace flood
