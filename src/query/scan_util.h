#ifndef FLOOD_QUERY_SCAN_UTIL_H_
#define FLOOD_QUERY_SCAN_UTIL_H_

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "query/query.h"
#include "query/query_stats.h"
#include "query/simd.h"
#include "storage/table.h"

namespace flood {

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
/// bit extraction. ScanRange runs it on ranges too small to amortize a
/// block decode; it is also the reference the block kernel is tested
/// against.
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

/// Filters rows [off, off + n) of `col`'s block `b` against `range`,
/// ANDing the matches into `bitmap` (initialized through InitMatchBitmap;
/// bit i <-> row off + i of the block). Returns the OR of the surviving
/// words, so 0 means nothing is left for later dimensions to narrow. The
/// block's zone map must overlap `range` (ClassifyBlockZones kept it). The
/// tier picks the step:
///  * at AVX2 and above, widths 1..kMaxPacked64Width are filtered straight
///    off the packed words (no decode store/reload), against the query
///    bounds translated into delta space: widths up to kMaxPacked32Width
///    16 (AVX-512) or 8 (AVX2) lanes of 32 bits at a time, wider ones 8
///    (AVX-512) or 4 (AVX2) lanes of 64 bits;
///  * width 0, widths past kMaxPacked64Width and the scalar tier decode the
///    block into `buf` (Column::kBlockSize values) once and compare: 8
///    (AVX-512) or 4 (AVX2) lanes at a time, or branch-free scalar.
inline uint64_t FilterBlock(simd::SimdLevel level, const Column& col,
                            size_t b, const ValueRange& range, size_t off,
                            size_t n, uint64_t* bitmap, Value* buf) {
  if (level >= simd::SimdLevel::kAvx2) {
    const Column::PackedBlock pb = col.GetPackedBlock(b);
    if (pb.width >= 1 && pb.width <= kMaxPacked64Width) {
      // Translate the query bounds into the block's delta space. The zone
      // pass guarantees BlockMin(b) == base <= range.hi and range.lo <=
      // BlockMax(b) (else kSkip), so dhi never underflows and dlo never
      // exceeds the width mask; clamping dhi to the mask keeps lane
      // compares exact: deltas can't exceed it.
      const uint64_t base = static_cast<uint64_t>(pb.base);
      const uint64_t mask = (uint64_t{1} << pb.width) - 1;
      const uint64_t dlo =
          range.lo <= pb.base ? 0 : static_cast<uint64_t>(range.lo) - base;
      const uint64_t dhi =
          std::min(static_cast<uint64_t>(range.hi) - base, mask);
      if (dlo > dhi) return 0;  // An empty range (lo > hi) matches nothing.
      const uint32_t w = pb.width;
      const bool narrow = w <= kMaxPacked32Width;
      FLOOD_DCHECK(pb.bit_offset % 8 == 0);
      const uint8_t* block = pb.bytes + pb.bit_offset / 8;
      if (level >= simd::SimdLevel::kAvx512) {
        return narrow ? simd::FilterPacked16Avx512(block, w, dlo, dhi, off, n,
                                                   bitmap)
                      : simd::FilterPackedWideAvx512(block, w, dlo, dhi, off,
                                                     n, bitmap);
      }
      return narrow
                 ? simd::FilterPacked8Avx2(block, w, dlo, dhi, off, n, bitmap)
                 : simd::FilterPackedAvx2(block, w, dlo, dhi, off, n, bitmap);
    }
  }
  col.DecodeBlockInto(b, buf);
  const Value* vals = buf + off;
  if (level >= simd::SimdLevel::kAvx512) {
    return simd::FilterDecodedAvx512(vals, n, range.lo, range.hi, bitmap);
  }
  if (level >= simd::SimdLevel::kAvx2) {
    return simd::FilterDecodedAvx2(vals, n, range.lo, range.hi, bitmap);
  }
  uint64_t any = 0;
  for (size_t w = 0; w * 64 < n; ++w) {
    const size_t cnt = std::min<size_t>(64, n - w * 64);
    uint64_t m = 0;
    for (size_t i = 0; i < cnt; ++i) {
      const Value v = vals[w * 64 + i];
      m |= static_cast<uint64_t>((v >= range.lo) & (v <= range.hi)) << i;
    }
    bitmap[w] &= m;
    any |= bitmap[w];
  }
  return any;
}

/// The block-at-a-time scan kernel (the §7.1-style fast path). Per
/// Column::kBlockSize block it first consults the per-block zone maps of
/// every check dimension:
///  * some dimension's query range is disjoint with the block range ->
///    the whole block is rejected without decoding (blocks_skipped);
///  * every dimension's block range is contained in its query range ->
///    the block matches entirely, delivered as an exact range so
///    cumulative aggregates apply (blocks_exact);
///  * otherwise each surviving dimension is filtered by FilterBlock at the
///    active ISA tier, AND-combined into a match bitmap with an all-zero
///    early-out, and delivered one block at a time through
///    V::VisitMatchBitmap. At AVX2 and above these blocks count as
///    simd_blocks.
/// Each block's zone maps are classified once: a forward peek finds the
/// next zone-map-surviving block, and the loop jumps straight to it.
template <typename V>
void ScanRangeBlocks(const Table& data, const Query& query, size_t begin,
                     size_t end, std::span<const size_t> check_dims,
                     V& visitor, QueryStats* stats) {
  const simd::SimdLevel level = simd::ActiveSimdLevel();
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
  uint64_t filtered_blocks = 0;
  const size_t first_block = begin / kBlock;
  const size_t last_block = (end - 1) / kBlock;
  // Classifies blocks from `b` on and returns the first that survives its
  // zone maps (last_block + 1 if none does), counting the skipped ones.
  // Zone maps cover the full block, so they are a (safe) superset of the
  // rows when the scan range clips it.
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

    // Forward peek: classify up to the next surviving block now, so the
    // loop jumps there with its verdict in hand.
    size_t num_peeked = 0;
    BlockZoneOutcome next_outcome = BlockZoneOutcome::kSkip;
    const size_t next = next_surviving(b + 1, peeked, &num_peeked,
                                       &next_outcome);

    if (outcome == BlockZoneOutcome::kExact) {
      ++blocks_exact;
      matched += n;
      visitor.VisitExactRange(static_cast<RowId>(lo),
                              static_cast<RowId>(hi));
    } else {
      const size_t words = InitMatchBitmap(bitmap, n);
      ++filtered_blocks;
      uint64_t any = 0;
      for (size_t p = 0; p < num_pending; ++p) {
        const size_t dim = pending[p];
        any = FilterBlock(level, data.column(dim), b, query.range(dim),
                          lo - block_begin, n, bitmap, buf);
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
    if (level >= simd::SimdLevel::kAvx2) stats->simd_blocks += filtered_blocks;
  }
}

/// Scans one range, checking each row of `check_dims` against the query.
/// Non-listed dimensions are assumed satisfied by construction (e.g. the
/// refined sort dimension). The kernel follows from the range: ranges
/// under 32 rows and predicates over 64 dimensions run naive, the rest
/// the block kernel, whose filter step follows simd::ActiveSimdLevel().
/// Both give identical results.
///
/// Counters: adds end-begin to points_scanned, matches to points_matched,
/// and one to ranges_scanned; the block kernel also tallies
/// blocks_skipped / blocks_exact from its zone-map outcomes, and, at AVX2
/// and above, its filtered blocks in simd_blocks.
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
  if (check_dims.size() > 64 || n < kMinBlockKernelRows) {
    ScanRangeNaive(data, query, begin, end, check_dims, visitor, stats);
  } else {
    ScanRangeBlocks(data, query, begin, end, check_dims, visitor, stats);
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
