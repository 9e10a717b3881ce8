#ifndef FLOOD_QUERY_SCAN_UTIL_H_
#define FLOOD_QUERY_SCAN_UTIL_H_

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "query/query.h"
#include "query/query_stats.h"
#include "query/simd.h"
#include "storage/table.h"

namespace flood {

/// A contiguous physical row range to scan. `exact` ranges are known a
/// priori to contain only matches (§7.1 optimization 1): no per-value
/// checks are performed and the visitor may use cumulative aggregates.
struct PhysRange {
  size_t begin = 0;
  size_t end = 0;
  bool exact = false;
};

/// Which scan kernel ScanRange dispatches to. kSimd (default where the CPU
/// has AVX2) filters with runtime-dispatched AVX2/AVX-512 vector
/// predicates; kBlock is the scalar block-decoded kernel, the
/// always-available reference the simd path falls back to; kNaive is the
/// original per-row path, kept for A/B benchmarking (bench_scan_kernel)
/// and as the equivalence-test ground truth.
enum class ScanKernel { kBlock, kNaive, kSimd };

namespace internal {
/// -1 = not yet resolved from the environment.
inline std::atomic<int> g_scan_kernel{-1};
}  // namespace internal

/// The active kernel: FLOOD_SCAN_KERNEL=naive|block|simd (read once).
/// Unset (or unrecognized) selects simd when the hardware supports AVX2
/// and block otherwise. Benign race on first use: resolution is
/// idempotent. Note kSimd can stay active while the vector ISA is masked
/// off (SetSimdLevelForTest); ScanRange then falls back to the block
/// kernel per call.
inline ScanKernel ActiveScanKernel() {
  int mode = internal::g_scan_kernel.load(std::memory_order_relaxed);
  if (mode < 0) {
    const char* env = std::getenv("FLOOD_SCAN_KERNEL");
    if (env != nullptr && std::strcmp(env, "naive") == 0) {
      mode = 1;
    } else if (env != nullptr && std::strcmp(env, "block") == 0) {
      mode = 0;
    } else if (env != nullptr && std::strcmp(env, "simd") == 0) {
      mode = 2;
    } else {
      mode = simd::ActiveSimdLevel() >= simd::SimdLevel::kAvx2 ? 2 : 0;
    }
    internal::g_scan_kernel.store(mode, std::memory_order_relaxed);
  }
  if (mode == 1) return ScanKernel::kNaive;
  return mode == 2 ? ScanKernel::kSimd : ScanKernel::kBlock;
}

/// Overrides the kernel choice (benchmarks / tests).
inline void SetScanKernel(ScanKernel kernel) {
  int mode = 0;
  if (kernel == ScanKernel::kNaive) mode = 1;
  if (kernel == ScanKernel::kSimd) mode = 2;
  internal::g_scan_kernel.store(mode, std::memory_order_relaxed);
}

/// Initializes `bitmap` to all-ones over the first `n` row slots — the
/// shared masked epilogue: the final partial word keeps only its low
/// n % 64 bits, so bits past the scanned range can never leak into a
/// visitor. Returns the word count. Every kernel (and every
/// DecodeBlockInto caller that filters a clipped or trailing partial
/// block) initializes through here rather than duplicating the tail
/// masking.
inline size_t InitMatchBitmap(uint64_t* bitmap, size_t n) {
  const size_t words = (n + 63) / 64;
  for (size_t w = 0; w < words; ++w) bitmap[w] = ~uint64_t{0};
  if (n % 64 != 0) {
    bitmap[words - 1] = (uint64_t{1} << (n % 64)) - 1;
  }
  return words;
}

/// Zone-map verdict for one block: reject whole, accept whole, or filter
/// the dimensions a zone map could neither reject nor fully accept
/// (written to `pending`, capacity >= check_dims.size()).
enum class BlockZoneOutcome { kSkip, kExact, kFilter };

inline BlockZoneOutcome ClassifyBlockZones(
    const Table& data, const Query& query,
    std::span<const size_t> check_dims, size_t b, size_t* pending,
    size_t* num_pending) {
  size_t np = 0;
  for (size_t dim : check_dims) {
    const ValueRange& r = query.range(dim);
    const Column& col = data.column(dim);
    const Value bmin = col.BlockMin(b);
    const Value bmax = col.BlockMax(b);
    if (r.hi < bmin || r.lo > bmax) return BlockZoneOutcome::kSkip;
    if (r.lo > bmin || bmax > r.hi) pending[np++] = dim;
  }
  *num_pending = np;
  return np == 0 ? BlockZoneOutcome::kExact : BlockZoneOutcome::kFilter;
}

/// The original row-at-a-time scan: evaluate one predicate column at a
/// time over a match bitmap, paying a per-value lambda call, div/mod, and
/// bit extraction. Reference implementation for the block kernel.
template <typename V>
void ScanRangeNaive(const Table& data, const Query& query, size_t begin,
                    size_t end, std::span<const size_t> check_dims,
                    V& visitor, QueryStats* stats) {
  constexpr size_t kChunk = 2048;
  uint64_t bitmap[kChunk / 64];
  size_t matched = 0;
  for (size_t chunk_begin = begin; chunk_begin < end;
       chunk_begin += kChunk) {
    const size_t chunk_end = std::min(end, chunk_begin + kChunk);
    const size_t chunk_n = chunk_end - chunk_begin;
    const size_t words = InitMatchBitmap(bitmap, chunk_n);

    for (size_t dim : check_dims) {
      const ValueRange& r = query.range(dim);
      const Column& col = data.column(dim);
      col.ForEach(chunk_begin, chunk_end,
                  [&](size_t i, Value v) {
                    if (!r.Contains(v)) {
                      const size_t off = i - chunk_begin;
                      bitmap[off / 64] &= ~(uint64_t{1} << (off % 64));
                    }
                  });
    }

    for (size_t w = 0; w < words; ++w) {
      uint64_t bits = bitmap[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        bits &= bits - 1;
        visitor.VisitRow(static_cast<RowId>(chunk_begin + w * 64 +
                                            static_cast<size_t>(b)));
        ++matched;
      }
    }
  }
  if (stats != nullptr) stats->points_matched += matched;
}

/// Block-at-a-time scan kernel (the §7.1-style fast path). Per
/// Column::kBlockSize block it first consults the per-block zone maps of
/// every check dimension:
///  * some dimension's query range is disjoint with the block range ->
///    the whole block is rejected without decoding (blocks_skipped);
///  * every dimension's block range is contained in its query range ->
///    the block matches entirely, delivered as an exact range so
///    cumulative aggregates apply (blocks_exact);
///  * otherwise the surviving dimensions are bulk-decoded once
///    (width-specialized branch-free unpacking) and the range predicate
///    is evaluated branchlessly into a match bitmap, delivered word-wise
///    through V::VisitMatchWord.
template <typename V>
void ScanRangeBlock(const Table& data, const Query& query, size_t begin,
                    size_t end, std::span<const size_t> check_dims,
                    V& visitor, QueryStats* stats) {
  constexpr size_t kBlock = Column::kBlockSize;
  static_assert(kBlock % 64 == 0);
  constexpr size_t kWords = kBlock / 64;
  Value buf[kBlock];
  uint64_t bitmap[kWords];
  // Dimensions a zone map could neither reject nor fully accept.
  constexpr size_t kMaxDims = 64;
  size_t pending[kMaxDims];
  FLOOD_DCHECK(check_dims.size() <= kMaxDims);

  size_t matched = 0;
  uint64_t blocks_skipped = 0;
  uint64_t blocks_exact = 0;
  const size_t first_block = begin / kBlock;
  const size_t last_block = (end - 1) / kBlock;
  for (size_t b = first_block; b <= last_block; ++b) {
    const size_t block_begin = b * kBlock;
    const size_t lo = std::max(begin, block_begin);
    const size_t hi = std::min(end, block_begin + kBlock);
    const size_t n = hi - lo;

    // Zone-map pass. Zone maps cover the full block, so they are a (safe)
    // superset of [lo, hi) when the scan range clips the block.
    size_t num_pending = 0;
    const BlockZoneOutcome outcome = ClassifyBlockZones(
        data, query, check_dims, b, pending, &num_pending);
    if (outcome == BlockZoneOutcome::kSkip) {
      ++blocks_skipped;
      continue;
    }
    if (outcome == BlockZoneOutcome::kExact) {
      ++blocks_exact;
      matched += n;
      visitor.VisitExactRange(static_cast<RowId>(lo),
                              static_cast<RowId>(hi));
      continue;
    }

    const size_t words = InitMatchBitmap(bitmap, n);
    for (size_t p = 0; p < num_pending; ++p) {
      const size_t dim = pending[p];
      const ValueRange& r = query.range(dim);
      data.column(dim).DecodeBlockInto(b, buf);
      const Value* vals = buf + (lo - block_begin);
      uint64_t any = 0;
      for (size_t w = 0; w < words; ++w) {
        const size_t base = w * 64;
        const size_t cnt = std::min<size_t>(64, n - base);
        uint64_t m = 0;
        for (size_t i = 0; i < cnt; ++i) {
          const Value v = vals[base + i];
          m |= static_cast<uint64_t>((v >= r.lo) & (v <= r.hi)) << i;
        }
        bitmap[w] &= m;
        any |= bitmap[w];
      }
      if (any == 0) break;  // Nothing left for later dimensions to narrow.
    }

    for (size_t w = 0; w < words; ++w) {
      if (bitmap[w] == 0) continue;
      matched += static_cast<size_t>(__builtin_popcountll(bitmap[w]));
      visitor.VisitMatchWord(static_cast<RowId>(lo + w * 64), bitmap[w]);
    }
  }
  if (stats != nullptr) {
    stats->points_matched += matched;
    stats->blocks_skipped += blocks_skipped;
    stats->blocks_exact += blocks_exact;
  }
}

/// Vectorized block scan kernel (ISSUE: the SIMD tentpole). Same zone-map
/// structure as ScanRangeBlock — per block, skip / exact-accept / filter —
/// but the filter stage runs runtime-dispatched vector predicates:
///  * widths 1..simd::kMaxPackedFilterWidth under kBlockDelta are filtered
///    straight off the packed words (no decode store/reload), against the
///    query bounds translated into delta space. Widths up to
///    simd::kMaxPacked8FilterWidth run 8 lanes of 32 bits per group of
///    eight deltas (two 16-byte loads, a byte shuffle and a per-lane
///    shift); wider ones run 4 lanes, each loading the byte-aligned 64-bit
///    window holding its delta;
///  * wider blocks and kPlain columns are bulk-decoded once and compared
///    4 (AVX2) or 8 (AVX-512) lanes at a time.
/// Check dimensions AND-combine into the match bitmap with an all-zero
/// early-out. Each block's zone maps are classified once: a forward peek
/// finds the *next* zone-map-surviving block, whose packed bytes are
/// software-prefetched while the current one filters, and the loop then
/// jumps straight to it. Matches are delivered one block at a time via
/// V::VisitMatchBitmap, so COUNT uses a popcount tree and SUM a masked
/// vector sum instead of per-word dispatch.
///
/// Caller guarantees simd::ActiveSimdLevel() >= kAvx2 (ScanRange falls
/// back to the block kernel otherwise).
template <typename V>
void ScanRangeSimd(const Table& data, const Query& query, size_t begin,
                   size_t end, std::span<const size_t> check_dims,
                   V& visitor, QueryStats* stats) {
  const simd::SimdLevel level = simd::ActiveSimdLevel();
  FLOOD_DCHECK(level >= simd::SimdLevel::kAvx2);
  constexpr size_t kBlock = Column::kBlockSize;
  static_assert(kBlock % 64 == 0);
  constexpr size_t kWords = kBlock / 64;
  Value buf[kBlock];
  uint64_t bitmap[kWords];
  // Dimensions a zone map could neither reject nor fully accept, for the
  // current block and for the peeked next one.
  constexpr size_t kMaxDims = 64;
  size_t pending_buf[2][kMaxDims];
  FLOOD_DCHECK(check_dims.size() <= kMaxDims);

  size_t matched = 0;
  uint64_t blocks_skipped = 0;
  uint64_t blocks_exact = 0;
  uint64_t simd_blocks = 0;
  const size_t first_block = begin / kBlock;
  const size_t last_block = (end - 1) / kBlock;
  // Classifies blocks from `b` on and returns the first that survives its
  // zone maps (last_block + 1 if none does), counting the skipped ones.
  const auto next_surviving = [&](size_t b, size_t* pend, size_t* num_pend,
                                  BlockZoneOutcome* outcome) {
    for (; b <= last_block; ++b) {
      *outcome = ClassifyBlockZones(data, query, check_dims, b, pend, num_pend);
      if (*outcome != BlockZoneOutcome::kSkip) break;
      ++blocks_skipped;
    }
    return b;
  };

  size_t* pending = pending_buf[0];
  size_t* peeked = pending_buf[1];
  size_t num_pending = 0;
  BlockZoneOutcome outcome = BlockZoneOutcome::kSkip;
  size_t b = next_surviving(first_block, pending, &num_pending, &outcome);
  while (b <= last_block) {
    const size_t block_begin = b * kBlock;
    const size_t lo = std::max(begin, block_begin);
    const size_t hi = std::min(end, block_begin + kBlock);
    const size_t n = hi - lo;

    // Forward peek: classify up to the next surviving block now, and
    // prefetch the packed bytes its filter will touch so they arrive in
    // cache while this block is handled. The loop then jumps there with
    // the verdict in hand, so each block is classified exactly once.
    size_t num_peeked = 0;
    BlockZoneOutcome next_outcome = BlockZoneOutcome::kSkip;
    const size_t next = next_surviving(b + 1, peeked, &num_peeked,
                                       &next_outcome);
    if (next_outcome == BlockZoneOutcome::kFilter) {
      for (size_t p = 0; p < num_peeked; ++p) {
        data.column(peeked[p]).PrefetchBlock(next);
      }
    }

    if (outcome == BlockZoneOutcome::kExact) {
      ++blocks_exact;
      matched += n;
      visitor.VisitExactRange(static_cast<RowId>(lo),
                              static_cast<RowId>(hi));
    } else {
      const size_t words = InitMatchBitmap(bitmap, n);
      ++simd_blocks;
      uint64_t any = 0;
      for (size_t p = 0; p < num_pending; ++p) {
        const size_t dim = pending[p];
        const ValueRange& r = query.range(dim);
        const Column& col = data.column(dim);
        Column::PackedBlock pb;
        if (col.GetPackedBlock(b, &pb) && pb.width >= 1 &&
            pb.width <= simd::kMaxPackedFilterWidth) {
          // Translate the query bounds into the block's delta space. The
          // zone pass guarantees BlockMin(b) == base <= r.hi and
          // r.lo <= BlockMax(b) (else kSkip), so dhi never underflows and
          // dlo never exceeds the width mask; clamping dhi to the mask
          // keeps lane compares exact: deltas can't exceed it.
          const uint64_t base = static_cast<uint64_t>(pb.base);
          const uint64_t mask = (uint64_t{1} << pb.width) - 1;
          const uint64_t dlo =
              r.lo <= pb.base ? 0 : static_cast<uint64_t>(r.lo) - base;
          const uint64_t dhi =
              std::min(static_cast<uint64_t>(r.hi) - base, mask);
          const size_t off = lo - block_begin;
          const uint32_t w = pb.width;
          if (w <= simd::kMaxPacked8FilterWidth) {
            FLOOD_DCHECK(pb.bit_offset % 8 == 0);
            const uint8_t* block = pb.bytes + pb.bit_offset / 8;
            any = simd::FilterPacked8Avx2(block, w, dlo, dhi, off, n, bitmap);
          } else {
            const uint64_t bit = pb.bit_offset + off * w;
            any = simd::FilterPackedAvx2(pb.bytes, bit, w, dlo, dhi, n, bitmap);
          }
        } else {
          // kPlain, width 0 (can't be pending, but harmless), or too wide
          // for byte-window lane loads: decode once, compare vectorized.
          col.DecodeBlockInto(b, buf);
          const Value* vals = buf + (lo - block_begin);
          any = level >= simd::SimdLevel::kAvx512
                    ? simd::FilterDecodedAvx512(vals, n, r.lo, r.hi, bitmap)
                    : simd::FilterDecodedAvx2(vals, n, r.lo, r.hi, bitmap);
        }
        if (any == 0) break;  // Nothing left for later dimensions to narrow.
      }

      if (any != 0) {
        matched += simd::PopcountWords(bitmap, words);
        visitor.VisitMatchBitmap(static_cast<RowId>(lo), n, bitmap);
      }
    }

    b = next;
    std::swap(pending, peeked);
    num_pending = num_peeked;
    outcome = next_outcome;
  }
  if (stats != nullptr) {
    stats->points_matched += matched;
    stats->blocks_skipped += blocks_skipped;
    stats->blocks_exact += blocks_exact;
    stats->simd_blocks += simd_blocks;
  }
}

/// Scans one range, checking each row of `check_dims` against the query.
/// Non-listed dimensions are assumed satisfied by construction (e.g. the
/// refined sort dimension). Dispatches per ActiveScanKernel(): the simd
/// kernel (default on AVX2 hardware), the scalar block kernel, or the
/// naive row-at-a-time path. kSimd with the vector ISA masked off
/// (FLOOD_SIMD_LEVEL / SetSimdLevelForTest) falls back to the block
/// kernel at call time — results are identical, simd_blocks stays 0.
///
/// Counters: adds end-begin to points_scanned, matches to points_matched,
/// and one to ranges_scanned; the block kernels also tally
/// blocks_skipped / blocks_exact from their zone-map outcomes, and the
/// simd kernel counts vector-filtered blocks in simd_blocks.
template <typename V>
void ScanRange(const Table& data, const Query& query, size_t begin,
               size_t end, bool exact, std::span<const size_t> check_dims,
               V& visitor, QueryStats* stats) {
  if (begin >= end) return;
  const size_t n = end - begin;
  if (stats != nullptr) {
    stats->points_scanned += n;
    ++stats->ranges_scanned;
  }
  if (exact || check_dims.empty()) {
    visitor.VisitExactRange(begin, end);
    if (stats != nullptr) {
      stats->points_matched += n;
      stats->points_exact += n;
    }
    return;
  }
  // The block kernel's pending-dimension scratch holds 64 entries; wider
  // predicates (not produced by any index here) take the naive path, as
  // do tiny ranges, which would not amortize a 128-value block decode
  // (tree/grid baselines emit many few-row boundary cells).
  constexpr size_t kMinBlockKernelRows = 32;
  const ScanKernel kernel = ActiveScanKernel();
  if (kernel == ScanKernel::kNaive || check_dims.size() > 64 ||
      n < kMinBlockKernelRows) {
    ScanRangeNaive(data, query, begin, end, check_dims, visitor, stats);
  } else if (kernel == ScanKernel::kSimd &&
             simd::ActiveSimdLevel() >= simd::SimdLevel::kAvx2) {
    ScanRangeSimd(data, query, begin, end, check_dims, visitor, stats);
  } else {
    ScanRangeBlock(data, query, begin, end, check_dims, visitor, stats);
  }
}

/// Convenience wrapper over a list of ranges with a shared check-dim set.
template <typename V>
void ScanRanges(const Table& data, const Query& query,
                const std::vector<PhysRange>& ranges,
                std::span<const size_t> check_dims, V& visitor,
                QueryStats* stats) {
  for (const PhysRange& r : ranges) {
    ScanRange(data, query, r.begin, r.end, r.exact, check_dims, visitor,
              stats);
  }
}

/// The filtered dimensions of `query` (the default check-dim set for
/// baseline indexes, which guarantee nothing per-range).
inline std::vector<size_t> FilteredDims(const Query& query) {
  std::vector<size_t> dims;
  dims.reserve(query.num_dims());
  for (size_t d = 0; d < query.num_dims(); ++d) {
    if (query.IsFiltered(d)) dims.push_back(d);
  }
  return dims;
}

}  // namespace flood

#endif  // FLOOD_QUERY_SCAN_UTIL_H_
