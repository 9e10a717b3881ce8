#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "query/scan_util.h"
#include "query/visitor.h"
#include "tests/test_util.h"

namespace flood {
namespace {

using testing::DataShape;
using testing::MakeTable;

/// True when the block kernel's vector filters can actually execute here.
bool SimdAvailable() {
  return simd::ActiveSimdLevel() >= simd::SimdLevel::kAvx2;
}

/// Caps the ISA for its scope, then restores the level active before (so
/// a FLOOD_SIMD_LEVEL cap outlives the test).
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(simd::SimdLevel cap)
      : saved_(simd::ActiveSimdLevel()) {
    simd::SetSimdLevelForTest(cap);
  }
  ~ScopedSimdLevel() { simd::SetSimdLevelForTest(saved_); }

 private:
  simd::SimdLevel saved_;
};

/// The two scan kernels, called directly (the block one under each ISA
/// tier), and ScanRange's own choice.
enum class Kernel {
  kNaive,
  kBlocksScalar,
  kBlocksAvx2,
  kBlocksAvx512,
  kDispatch
};

const char* KernelName(Kernel kernel) {
  switch (kernel) {
    case Kernel::kNaive:
      return "naive";
    case Kernel::kBlocksScalar:
      return "blocks/scalar";
    case Kernel::kBlocksAvx2:
      return "blocks/avx2";
    case Kernel::kBlocksAvx512:
      return "blocks/avx512";
    case Kernel::kDispatch:
      return "dispatch";
  }
  return "?";
}

/// The block kernel at a vector tier: its filtered blocks count as
/// simd_blocks.
bool IsSimd(Kernel kernel) {
  return kernel == Kernel::kBlocksAvx2 || kernel == Kernel::kBlocksAvx512;
}

/// Every kernel this run can use: the block kernel under each tier up to
/// the active one (the hardware's, capped by FLOOD_SIMD_LEVEL).
std::vector<Kernel> RunnableKernels() {
  std::vector<Kernel> kernels{Kernel::kNaive, Kernel::kBlocksScalar};
  const simd::SimdLevel active = simd::ActiveSimdLevel();
  if (active >= simd::SimdLevel::kAvx2) kernels.push_back(Kernel::kBlocksAvx2);
  if (active >= simd::SimdLevel::kAvx512) {
    kernels.push_back(Kernel::kBlocksAvx512);
  }
  return kernels;
}

/// The ISA tier a block-kernel entry runs under.
simd::SimdLevel TierOf(Kernel kernel) {
  if (kernel == Kernel::kBlocksAvx512) return simd::SimdLevel::kAvx512;
  if (kernel == Kernel::kBlocksAvx2) return simd::SimdLevel::kAvx2;
  return simd::SimdLevel::kScalar;
}

/// Scans the non-empty range [begin, end) with `kernel`. Only kDispatch
/// (ScanRange) adds points_scanned and ranges_scanned.
template <typename V>
void ScanWith(Kernel kernel, const Table& t, const Query& q, size_t begin,
              size_t end, std::span<const size_t> dims, V& visitor,
              QueryStats* stats) {
  switch (kernel) {
    case Kernel::kNaive:
      ScanRangeNaive(t, q, begin, end, dims, visitor, stats);
      return;
    case Kernel::kBlocksScalar:
    case Kernel::kBlocksAvx2:
    case Kernel::kBlocksAvx512: {
      ScopedSimdLevel cap(TierOf(kernel));
      ScanRangeBlocks(t, q, begin, end, dims, visitor, stats);
      return;
    }
    case Kernel::kDispatch:
      ScanRange(t, q, begin, end, false, dims, visitor, stats);
      return;
  }
}

TEST(ScanUtilTest, ExactRangeSkipsChecks) {
  const Table t = MakeTable(DataShape::kUniform, 1000, 2, 1);
  Query q = QueryBuilder(2).Range(0, 0, 10).Build();  // Barely matches.
  CountVisitor v;
  QueryStats stats;
  // Exact overrides the filter: all 1000 rows count.
  ScanRange(t, q, 0, 1000, /*exact=*/true, FilteredDims(q), v, &stats);
  EXPECT_EQ(v.count(), 1000u);
  EXPECT_EQ(stats.points_exact, 1000u);
  EXPECT_EQ(stats.points_scanned, 1000u);
}

TEST(ScanUtilTest, EmptyCheckSetActsExact) {
  const Table t = MakeTable(DataShape::kUniform, 100, 2, 2);
  const Query q(2);
  CountVisitor v;
  QueryStats stats;
  ScanRange(t, q, 10, 60, /*exact=*/false, std::vector<size_t>{}, v,
            &stats);
  EXPECT_EQ(v.count(), 50u);
  EXPECT_EQ(stats.points_exact, 50u);
}

TEST(ScanUtilTest, FilterCheckMatchesBruteForce) {
  const Table t = MakeTable(DataShape::kClustered, 9000, 3, 3);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const Query q = testing::RandomQuery(t, 100 + seed);
    CountVisitor v;
    QueryStats stats;
    ScanRange(t, q, 0, t.num_rows(), false, FilteredDims(q), v, &stats);
    EXPECT_EQ(v.count(), testing::BruteForce(t, q, 0).count);
    EXPECT_EQ(stats.points_matched, v.count());
  }
}

TEST(ScanUtilTest, BoundaryAlignmentBothKernels) {
  // Ranges crossing block (128) and 64-bit word boundaries.
  std::vector<Value> col(6000);
  for (size_t i = 0; i < col.size(); ++i) col[i] = static_cast<Value>(i);
  StatusOr<Table> t = Table::FromColumns({col});
  ASSERT_TRUE(t.ok());
  Query q = QueryBuilder(1).Range(0, 100, 4999).Build();
  const std::vector<size_t> dims{0};
  std::vector<Kernel> kernels = RunnableKernels();
  kernels.push_back(Kernel::kDispatch);
  for (Kernel kernel : kernels) {
    SCOPED_TRACE(KernelName(kernel));
    for (auto [begin, end] : std::vector<std::pair<size_t, size_t>>{
             {0, 6000}, {1, 2049}, {2047, 2049}, {63, 65}, {2048, 4096},
             {127, 129}, {128, 256}, {5999, 6000}, {0, 1}, {100, 100}}) {
      CountVisitor v;
      // The kernels take non-empty ranges; ScanRange takes any.
      if (begin < end || kernel == Kernel::kDispatch) {
        ScanWith(kernel, *t, q, begin, end, dims, v, nullptr);
      }
      uint64_t expected = 0;
      for (size_t i = begin; i < end; ++i) {
        if (col[i] >= 100 && col[i] <= 4999) ++expected;
      }
      EXPECT_EQ(v.count(), expected) << begin << ".." << end;
    }
  }
}

TEST(ScanUtilTest, MultiDimChecksAndCombine) {
  StatusOr<Table> t = Table::FromColumns({{1, 2, 3, 4}, {10, 20, 30, 40}});
  ASSERT_TRUE(t.ok());
  Query q = QueryBuilder(2).Range(0, 2, 4).Range(1, 10, 30).Build();
  CollectVisitor v;
  const std::vector<size_t> dims{0, 1};
  ScanRange(*t, q, 0, 4, false, dims, v, nullptr);
  // Rows 1 (2,20) and 2 (3,30) match.
  ASSERT_EQ(v.rows().size(), 2u);
  EXPECT_EQ(v.rows()[0], 1u);
  EXPECT_EQ(v.rows()[1], 2u);
}

TEST(ScanUtilTest, FilteredDimsListsOnlyFiltered) {
  Query q = QueryBuilder(4).Range(1, 0, 5).Equals(3, 2).Build();
  const std::vector<size_t> dims = FilteredDims(q);
  ASSERT_EQ(dims.size(), 2u);
  EXPECT_EQ(dims[0], 1u);
  EXPECT_EQ(dims[1], 3u);
}

// ---------------------------------------------------------------------------
// Block kernel at every tier vs naive reference equivalence.
// ---------------------------------------------------------------------------

/// A column whose every full block has exactly `w` delta bits: the first
/// element pins the block minimum, the second pins the maximum delta, the
/// rest are uniform within the span. Block bases differ so zone maps have
/// distinct ranges.
std::vector<Value> WidthControlledColumn(uint32_t w, size_t n, Rng& rng) {
  constexpr size_t kB = Column::kBlockSize;
  std::vector<Value> v(n);
  for (size_t begin = 0; begin < n; begin += kB) {
    const size_t end = std::min(n, begin + kB);
    const size_t block = begin / kB;
    Value base;
    uint64_t mask;
    if (w >= 64) {
      base = kValueMin;
      mask = ~uint64_t{0};
    } else {
      base = static_cast<Value>(block) * 1'000'000;
      mask = w == 0 ? 0 : (uint64_t{1} << w) - 1;
    }
    for (size_t i = begin; i < end; ++i) {
      uint64_t delta = rng.Next() & mask;
      if (i == begin) {
        delta = 0;
      } else if (i == begin + 1) {
        delta = mask;
      }
      v[i] = static_cast<Value>(static_cast<uint64_t>(base) + delta);
    }
  }
  return v;
}

/// One kernel's observable scan output: matched rows, COUNT, SUM, stats.
struct KernelRun {
  std::vector<RowId> rows;
  uint64_t count = 0;
  int64_t sum = 0;
  QueryStats stats;
};

KernelRun RunKernel(Kernel kernel, const Table& t, const Query& q,
                    size_t begin, size_t end,
                    std::span<const size_t> dims) {
  KernelRun run;
  CollectVisitor collect;
  ScanWith(kernel, t, q, begin, end, dims, collect, &run.stats);
  run.rows = collect.rows();
  CountVisitor count;
  ScanWith(kernel, t, q, begin, end, dims, count, nullptr);
  run.count = count.count();
  SumVisitor sum(&t.column(0));
  ScanWith(kernel, t, q, begin, end, dims, sum, nullptr);
  run.sum = sum.sum();
  return run;
}

/// Runs every kernel this host can run over the same non-empty range and
/// asserts the block kernel at every tier (scalar, AVX2, AVX-512) is
/// bit-identical to the naive reference: same matched rows, counts, sums
/// and points_matched. Its zone-map outcomes must not depend on the tier.
/// ScanRange must give the same answer with the counters of the kernel its
/// dispatch rule names at the active tier.
void ExpectKernelsAgree(const Table& t, const Query& q, size_t begin,
                        size_t end, std::span<const size_t> dims) {
  std::vector<std::pair<Kernel, KernelRun>> runs;
  for (Kernel kernel : RunnableKernels()) {
    runs.emplace_back(kernel, RunKernel(kernel, t, q, begin, end, dims));
  }
  runs.emplace_back(Kernel::kDispatch,
                    RunKernel(Kernel::kDispatch, t, q, begin, end, dims));
  const KernelRun& naive = runs[0].second;
  const KernelRun& block = runs[1].second;
  for (const auto& [kernel, run] : runs) {
    SCOPED_TRACE(KernelName(kernel));
    ASSERT_EQ(naive.rows, run.rows);
    EXPECT_EQ(naive.count, run.count);
    EXPECT_EQ(naive.sum, run.sum);
    EXPECT_EQ(naive.stats.points_matched, run.stats.points_matched);
  }
  EXPECT_EQ(naive.stats.blocks_skipped, 0u);
  EXPECT_EQ(naive.stats.blocks_exact, 0u);
  EXPECT_EQ(naive.stats.simd_blocks, 0u);
  EXPECT_EQ(block.stats.simd_blocks, 0u);
  for (const auto& [kernel, run] : runs) {
    if (!IsSimd(kernel)) continue;
    SCOPED_TRACE(KernelName(kernel));
    // Zone-map outcomes must not depend on the tier's filter step, and
    // every zone-surviving block that needed filtering went through the
    // vector path.
    EXPECT_EQ(block.stats.blocks_skipped, run.stats.blocks_skipped);
    EXPECT_EQ(block.stats.blocks_exact, run.stats.blocks_exact);
    const size_t blocks = (end - 1) / Column::kBlockSize -
                          begin / Column::kBlockSize + 1;
    EXPECT_EQ(run.stats.simd_blocks,
              blocks - run.stats.blocks_skipped - run.stats.blocks_exact);
  }

  const KernelRun& dispatched = runs.back().second;
  EXPECT_EQ(dispatched.stats.points_scanned, end - begin);
  EXPECT_EQ(dispatched.stats.ranges_scanned, 1u);
  // The active tier's block kernel is the last one run before dispatch.
  const KernelRun& chosen = end - begin < 32 || dims.size() > 64
                                ? naive
                                : runs[runs.size() - 2].second;
  EXPECT_EQ(dispatched.stats.blocks_skipped, chosen.stats.blocks_skipped);
  EXPECT_EQ(dispatched.stats.blocks_exact, chosen.stats.blocks_exact);
  EXPECT_EQ(dispatched.stats.simd_blocks, chosen.stats.simd_blocks);
}

// Every delta width 0..64: at the vector tiers 1..57 take the packed
// filters, 0 and 58..64 the decoded compare; the scalar tier decodes all.
TEST(ScanKernelEquivalenceTest, AllBitWidths) {
  constexpr size_t kB = Column::kBlockSize;
  const size_t n = 5 * kB + 37;  // Trailing partial block.
  for (uint32_t w = 0; w <= 64; ++w) {
    Rng rng(1000 + w);
    std::vector<Value> c0 = WidthControlledColumn(w, n, rng);
    std::vector<Value> c1 = WidthControlledColumn(w / 2, n, rng);
    // Ranges spanning roughly half of each column's value span.
    std::vector<Value> sorted = c0;
    std::sort(sorted.begin(), sorted.end());
    const Value lo = sorted[n / 4];
    const Value hi = sorted[3 * n / 4];
    std::vector<Value> sorted1 = c1;
    std::sort(sorted1.begin(), sorted1.end());
    StatusOr<Table> t = Table::FromColumns({c0, c1});
    ASSERT_TRUE(t.ok());
    const Query q = QueryBuilder(2)
                        .Range(0, lo, hi)
                        .Range(1, sorted1[n / 10], sorted1[9 * n / 10])
                        .Build();
    const std::vector<size_t> dims = FilteredDims(q);
    // Full range, block-straddling sub-ranges, and intra-block ranges.
    for (auto [begin, end] : std::vector<std::pair<size_t, size_t>>{
             {0, n}, {1, n - 1}, {kB - 1, kB + 1}, {kB / 2, 3 * kB + 5},
             {2 * kB, 3 * kB}, {n - 5, n}}) {
      SCOPED_TRACE("width=" + std::to_string(w) + " range=" +
                   std::to_string(begin) + ".." + std::to_string(end));
      ExpectKernelsAgree(*t, q, begin, end, dims);
    }
  }
}

TEST(ScanKernelEquivalenceTest, RandomQueriesOnShapedData) {
  for (DataShape shape : {DataShape::kUniform, DataShape::kClustered,
                          DataShape::kDuplicates, DataShape::kCorrelated}) {
    const Table t = MakeTable(shape, 3000, 3, 7);
    for (uint64_t seed = 0; seed < 8; ++seed) {
      const Query q = testing::RandomQuery(t, 400 + seed);
      const std::vector<size_t> dims = FilteredDims(q);
      if (dims.empty()) continue;
      ExpectKernelsAgree(t, q, 0, t.num_rows(), dims);
      ExpectKernelsAgree(t, q, 17, t.num_rows() - 211, dims);
    }
  }
}

/// The widths the packed filters split at: 8 lanes for 1..25, 4 lanes for
/// 26..57 (both ends of that tier).
std::vector<uint32_t> PackedFilterWidths() {
  std::vector<uint32_t> widths;
  for (uint32_t w = 1; w <= kMaxPacked32Width; ++w) {
    widths.push_back(w);
  }
  widths.push_back(kMaxPacked32Width + 1);
  widths.push_back(kMaxPacked64Width);
  return widths;
}

// Ranges that start mid-block and run to the column's last row, so the
// packed filters' loads reach past the final block's last delta into the
// column's decode slack (kDecodeSlackWords), where ASan watches them.
TEST(ScanKernelEquivalenceTest, PackedFiltersThroughFinalBlock) {
  constexpr size_t kB = Column::kBlockSize;
  static_assert(kMaxPacked32Width == 25);
  static_assert(kMaxPacked64Width == 57);
  for (const uint32_t w : PackedFilterWidths()) {
    SCOPED_TRACE("width=" + std::to_string(w));
    // A full final block (its last group of 8 deltas ends the packed
    // words) and a partial one.
    for (const size_t n : {4 * kB, 3 * kB + 121}) {
      SCOPED_TRACE("n=" + std::to_string(n));
      Rng rng(2000 + w);
      const std::vector<Value> c0 = WidthControlledColumn(w, n, rng);
      // Bounds inside the final block's values, so its zone map leaves
      // it to the filter.
      const auto tail_begin = c0.begin() + static_cast<ptrdiff_t>(3 * kB);
      std::vector<Value> tail(tail_begin, c0.end());
      std::sort(tail.begin(), tail.end());
      const Value lo = tail[tail.size() / 5];
      const Value hi = tail[4 * tail.size() / 5];
      StatusOr<Table> t = Table::FromColumns({c0});
      ASSERT_TRUE(t.ok());
      const Query q = QueryBuilder(1).Range(0, lo, hi).Build();
      const std::vector<size_t> dims = FilteredDims(q);
      const size_t begins[] = {5, kB + 63, 2 * kB + 64, 3 * kB + 1, n - 40};
      for (const size_t begin : begins) {
        SCOPED_TRACE("begin=" + std::to_string(begin));
        ExpectKernelsAgree(*t, q, begin, n, dims);
      }
    }
  }
}

// The packed kernels themselves against a scalar reference, at every
// offset into the column's final block and with bounds at and inside the
// width's extremes: the AVX2 ones, and the AVX-512 ones where the
// hardware has them.
TEST(ScanKernelTest, PackedFiltersMatchScalarReference) {
  const simd::SimdLevel hw = simd::DetectedSimdLevel();
  if (hw < simd::SimdLevel::kAvx2) GTEST_SKIP() << "no AVX2";
  constexpr size_t kB = Column::kBlockSize;
  const auto filter = [](simd::SimdLevel level, const Column::PackedBlock& pb,
                         uint64_t dlo, uint64_t dhi, size_t off, size_t len,
                         uint64_t* bitmap) {
    const uint32_t w = pb.width;
    const uint8_t* block = pb.bytes + pb.bit_offset / 8;
    const bool narrow = w <= kMaxPacked32Width;
    if (level == simd::SimdLevel::kAvx512) {
      return narrow ? simd::FilterPacked16Avx512(block, w, dlo, dhi, off, len,
                                                 bitmap)
                    : simd::FilterPackedWideAvx512(block, w, dlo, dhi, off,
                                                   len, bitmap);
    }
    return narrow
               ? simd::FilterPacked8Avx2(block, w, dlo, dhi, off, len, bitmap)
               : simd::FilterPackedAvx2(block, w, dlo, dhi, off, len, bitmap);
  };
  std::vector<simd::SimdLevel> levels{simd::SimdLevel::kAvx2};
  if (hw >= simd::SimdLevel::kAvx512) {
    levels.push_back(simd::SimdLevel::kAvx512);
  }
  for (const uint32_t w : PackedFilterWidths()) {
    SCOPED_TRACE("width=" + std::to_string(w));
    Rng rng(3000 + w);
    const std::vector<Value> values = WidthControlledColumn(w, 3 * kB, rng);
    const Column col = Column::FromValues(values);
    const size_t b = col.NumBlocks() - 1;
    const Column::PackedBlock pb = col.GetPackedBlock(b);
    ASSERT_EQ(pb.width, w);
    const uint64_t base = static_cast<uint64_t>(pb.base);
    const uint64_t mask = (uint64_t{1} << w) - 1;
    for (int trial = 0; trial < 4; ++trial) {
      uint64_t dlo = rng.Next() & mask;
      uint64_t dhi = rng.Next() & mask;
      if (dlo > dhi) std::swap(dlo, dhi);
      if (trial == 0) dlo = 0;
      if (trial == 1) dhi = mask;
      for (size_t off = 0; off < kB; ++off) {
        const size_t len = kB - off;
        uint64_t want[2] = {0, 0};
        for (size_t i = 0; i < len; ++i) {
          const size_t row = b * kB + off + i;
          const uint64_t d = static_cast<uint64_t>(values[row]) - base;
          const uint64_t hit = d >= dlo && d <= dhi;
          want[i / 64] |= hit << (i % 64);
        }
        for (const simd::SimdLevel level : levels) {
          SCOPED_TRACE(simd::SimdLevelName(level));
          uint64_t got[2];
          const size_t words = InitMatchBitmap(got, len);
          const uint64_t any = filter(level, pb, dlo, dhi, off, len, got);
          for (size_t k = 0; k < words; ++k) {
            EXPECT_EQ(got[k], want[k]) << "off=" << off << " word=" << k;
          }
          EXPECT_EQ(any, words == 1 ? want[0] : want[0] | want[1]);
        }
      }
    }
  }
}

// A query range with lo > hi can still pass a block's zone map (bmin <=
// hi < lo <= bmax); its delta-space bounds are then inverted, and every
// kernel must match nothing.
TEST(ScanKernelEquivalenceTest, InvertedRangeInsideTheZoneMap) {
  constexpr size_t kB = Column::kBlockSize;
  for (const uint32_t w : {5u, 17u, 40u}) {
    SCOPED_TRACE("width=" + std::to_string(w));
    Rng rng(4000 + w);
    const std::vector<Value> c0 = WidthControlledColumn(w, 3 * kB, rng);
    StatusOr<Table> t = Table::FromColumns({c0});
    ASSERT_TRUE(t.ok());
    // Block 1 spans [1'000'000, 1'000'000 + 2^w - 1].
    const Value base = 1'000'000;
    const Value span = (Value{1} << w) - 1;
    const Query q =
        QueryBuilder(1).Range(0, base + span / 2 + 1, base + span / 2).Build();
    const std::vector<size_t> dims = FilteredDims(q);
    ExpectKernelsAgree(*t, q, 0, 3 * kB, dims);
    CountVisitor count;
    ScanRange(*t, q, 0, 3 * kB, false, dims, count, nullptr);
    EXPECT_EQ(count.count(), 0u);
  }
}

TEST(ScanKernelTest, ZoneMapSkipAndExactCounters) {
  // Sorted column: each 128-block covers a distinct narrow range.
  std::vector<Value> col(1280);
  for (size_t i = 0; i < col.size(); ++i) col[i] = static_cast<Value>(i);
  StatusOr<Table> t = Table::FromColumns({col});
  ASSERT_TRUE(t.ok());
  const Query q = QueryBuilder(1).Range(0, 256, 800).Build();
  const std::vector<size_t> dims{0};

  for (Kernel kernel : RunnableKernels()) {
    SCOPED_TRACE(KernelName(kernel));
    // The naive kernel never touches the block counters.
    const bool zoned = kernel != Kernel::kNaive;
    {
      CountVisitor v;
      QueryStats stats;
      ScanWith(kernel, *t, q, 0, 1280, dims, v, &stats);
      EXPECT_EQ(v.count(), 545u);  // 256..800 inclusive.
      EXPECT_EQ(stats.points_matched, 545u);
      // Blocks 0-1 and 7-9 are disjoint with [256, 800]; blocks 2-5 are
      // fully contained; block 6 (768..895) needs filtering, which only
      // the vector tiers count as a simd block.
      EXPECT_EQ(stats.blocks_skipped, zoned ? 5u : 0u);
      EXPECT_EQ(stats.blocks_exact, zoned ? 4u : 0u);
      EXPECT_EQ(stats.simd_blocks, IsSimd(kernel) ? 1u : 0u);
    }
    {
      // Clipped scan range: zone maps still apply to partial blocks.
      CountVisitor v;
      QueryStats stats;
      ScanWith(kernel, *t, q, 300, 900, dims, v, &stats);
      EXPECT_EQ(v.count(), 501u);  // 300..800 inclusive.
      // Clipped block 7 (896..899) skipped; blocks 2-5 (clipped block 2)
      // exact.
      EXPECT_EQ(stats.blocks_skipped, zoned ? 1u : 0u);
      EXPECT_EQ(stats.blocks_exact, zoned ? 4u : 0u);
    }
  }
}

TEST(ScanKernelTest, DispatchFollowsRangeSizeAndIsa) {
  // Block 0 (0..127) lies inside [0, 200]: exact. Block 1 (128..255)
  // straddles 200: it needs filtering.
  std::vector<Value> col(512);
  for (size_t i = 0; i < col.size(); ++i) col[i] = static_cast<Value>(i);
  StatusOr<Table> t = Table::FromColumns({col});
  ASSERT_TRUE(t.ok());
  const Query q = QueryBuilder(1).Range(0, 0, 200).Build();
  const std::vector<size_t> dims{0};
  const auto scan = [&](size_t begin, size_t end) {
    CountVisitor v;
    QueryStats stats;
    ScanRange(*t, q, begin, end, false, dims, v, &stats);
    EXPECT_EQ(v.count(), end - begin);
    EXPECT_EQ(stats.points_scanned, end - begin);
    return stats;
  };

  // 31 rows across both blocks: too few for the block kernel, so naive.
  const QueryStats naive = scan(112, 143);
  EXPECT_EQ(naive.blocks_skipped, 0u);
  EXPECT_EQ(naive.blocks_exact, 0u);
  EXPECT_EQ(naive.simd_blocks, 0u);

  // 32 rows: the block kernel, counting a simd block where AVX2 is
  // active.
  const QueryStats wide = scan(112, 144);
  EXPECT_EQ(wide.blocks_skipped, 0u);
  EXPECT_EQ(wide.blocks_exact, 1u);
  EXPECT_EQ(wide.simd_blocks, SimdAvailable() ? 1u : 0u);

  // With the vector ISA masked off, the same range filters at scalar.
  QueryStats masked;
  {
    ScopedSimdLevel cap(simd::SimdLevel::kScalar);
    masked = scan(112, 144);
  }
  EXPECT_EQ(masked.blocks_skipped, 0u);
  EXPECT_EQ(masked.blocks_exact, 1u);
  EXPECT_EQ(masked.simd_blocks, 0u);
}

TEST(ScanKernelTest, SimdDispatchFallsBackWhenIsaMasked) {
  // With the vector ISA masked off, ScanRange's block kernel must fall
  // back to its scalar filter step at call time: identical results and
  // zone-map counters, and no block ever counted as vector-filtered.
  const Table t = MakeTable(DataShape::kClustered, 4096, 3, 11);
  const Query q = testing::RandomQuery(t, 77);
  const std::vector<size_t> dims = FilteredDims(q);
  ASSERT_FALSE(dims.empty());

  CollectVisitor unmasked;
  QueryStats unmasked_stats;
  ScanRange(t, q, 0, t.num_rows(), false, dims, unmasked, &unmasked_stats);

  CollectVisitor masked;
  QueryStats masked_stats;
  {
    ScopedSimdLevel cap(simd::SimdLevel::kScalar);
    ASSERT_EQ(simd::ActiveSimdLevel(), simd::SimdLevel::kScalar);
    ScanRange(t, q, 0, t.num_rows(), false, dims, masked, &masked_stats);
  }

  EXPECT_EQ(unmasked.rows(), masked.rows());
  EXPECT_EQ(unmasked_stats.points_matched, masked_stats.points_matched);
  EXPECT_EQ(unmasked_stats.blocks_skipped, masked_stats.blocks_skipped);
  EXPECT_EQ(unmasked_stats.blocks_exact, masked_stats.blocks_exact);
  EXPECT_EQ(masked_stats.simd_blocks, 0u);
  // The cap only masks: it can never exceed what cpuid detected.
  ScopedSimdLevel cap(simd::SimdLevel::kAvx512);
  EXPECT_LE(simd::ActiveSimdLevel(), simd::DetectedSimdLevel());
}

TEST(SimdLevelTest, ParseNamesEachTierAndRejectsTheRest) {
  EXPECT_EQ(simd::ParseSimdLevel("scalar"), simd::SimdLevel::kScalar);
  EXPECT_EQ(simd::ParseSimdLevel("avx2"), simd::SimdLevel::kAvx2);
  EXPECT_EQ(simd::ParseSimdLevel("avx512"), simd::SimdLevel::kAvx512);
  for (const char* bad : {"", "AVX2", "avx", "avx2 ", "sse4", "none"}) {
    EXPECT_EQ(simd::ParseSimdLevel(bad), std::nullopt) << '"' << bad << '"';
  }
}

// ---------------------------------------------------------------------------
// Visitor block-level contract.
// ---------------------------------------------------------------------------

TEST(VisitorTest, SumVisitorUsesPrefixSumsForExactRanges) {
  std::vector<Value> col{5, 10, 15, 20, 25};
  const Column column = Column::FromValues(col);
  const PrefixSums sums(col);
  SumVisitor with(&column);
  with.set_prefix_sums(&sums);
  with.VisitExactRange(1, 4);
  EXPECT_EQ(with.sum(), 45);
  SumVisitor without(&column);
  without.VisitExactRange(1, 4);
  EXPECT_EQ(without.sum(), 45);
  without.VisitRow(0);
  EXPECT_EQ(without.sum(), 50);
}

TEST(VisitorTest, SumVisitorFullWordUsesPrefixSums) {
  std::vector<Value> col(256);
  for (size_t i = 0; i < col.size(); ++i) col[i] = static_cast<Value>(i);
  const Column column = Column::FromValues(col);
  const PrefixSums sums(col);
  for (simd::SimdLevel level :
       {simd::DetectedSimdLevel(), simd::SimdLevel::kScalar}) {
    SCOPED_TRACE(simd::SimdLevelName(level));
    ScopedSimdLevel cap(level);
    SumVisitor v(&column);
    v.set_prefix_sums(&sums);
    // Rows 0..63 -> prefix-sum path; rows 64 and 66 -> per-bit path.
    const uint64_t aligned[2] = {~uint64_t{0}, 0b101};
    v.VisitMatchBitmap(0, 128, aligned);
    EXPECT_EQ(v.sum(), 63 * 64 / 2 + 64 + 66);
    // A clipped delivery: rows 130..193 full, then 194 and 197.
    const uint64_t clipped[2] = {~uint64_t{0}, 0b1001};
    v.VisitMatchBitmap(130, 126, clipped);
    EXPECT_EQ(v.sum(), 63 * 64 / 2 + 64 + 66 + (130 + 193) * 64 / 2 +
                           194 + 197);
  }
}

TEST(VisitorTest, CollectVisitorExpandsMatchBitmapsInOrder) {
  CollectVisitor v;
  const uint64_t bitmap[2] = {uint64_t{1} << 63, (uint64_t{1} << 5) | 1};
  v.VisitMatchBitmap(128, 128, bitmap);
  ASSERT_EQ(v.rows().size(), 3u);
  EXPECT_EQ(v.rows()[0], 191u);
  EXPECT_EQ(v.rows()[1], 192u);
  EXPECT_EQ(v.rows()[2], 197u);
}

TEST(VisitorTest, CountVisitorPopcountsMatchBitmaps) {
  CountVisitor v;
  // Zero words may appear inside a bitmap.
  const uint64_t bitmap[2] = {0, 0b1011};
  v.VisitMatchBitmap(0, 128, bitmap);
  EXPECT_EQ(v.count(), 3u);
  const uint64_t partial[1] = {0x7f};
  v.VisitMatchBitmap(128, 7, partial);
  EXPECT_EQ(v.count(), 10u);
}

TEST(VisitorTest, SumVisitorBitmapMatchesPerRowPath) {
  // SumVisitor's bitmap reduction must agree with the base class's
  // per-row expansion for every delivery shape: full words (prefix-sum
  // path), partial words (masked vector sum), zero words, and clipped /
  // unaligned ranges that take the per-bit fallback.
  std::vector<Value> col(256);
  Rng rng(99);
  for (auto& v : col) v = static_cast<Value>(rng.Next() % 100000) - 50000;
  const Column column = Column::FromValues(col);
  const PrefixSums sums(col);
  const uint64_t bitmap[2] = {~uint64_t{0}, 0xdeadbeefcafe1234ull};
  const struct {
    RowId begin;
    size_t n;
  } cases[] = {{0, 128}, {128, 128}, {128, 100}, {64, 128}, {3, 70}};
  for (const auto& c : cases) {
    SCOPED_TRACE(std::to_string(c.begin) + "+" + std::to_string(c.n));
    uint64_t clipped[2];
    clipped[0] = bitmap[0];
    clipped[1] = c.n > 64 ? bitmap[1] : 0;
    if (c.n % 64 != 0) {
      clipped[(c.n - 1) / 64] &= (uint64_t{1} << (c.n % 64)) - 1;
    }
    SumVisitor vectorized(&column);
    vectorized.set_prefix_sums(&sums);
    vectorized.VisitMatchBitmap(c.begin, c.n, clipped);
    SumVisitor reference(&column);
    reference.Visitor::VisitMatchBitmap(c.begin, c.n, clipped);
    EXPECT_EQ(vectorized.sum(), reference.sum());
  }
}

TEST(VisitorTest, KindsReported) {
  const Column c = Column::FromValues(std::vector<Value>{1});
  EXPECT_EQ(CountVisitor().kind(), Visitor::Kind::kCount);
  EXPECT_EQ(SumVisitor(&c).kind(), Visitor::Kind::kSum);
  EXPECT_EQ(CollectVisitor().kind(), Visitor::Kind::kCollect);
}

}  // namespace
}  // namespace flood
