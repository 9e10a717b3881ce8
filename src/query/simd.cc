#include "query/simd.h"

#include <algorithm>
#include <cstring>

#include "common/macros.h"

namespace flood {
namespace simd {

#if FLOOD_SIMD_X86

namespace {

/// Unaligned little-endian 64-bit load (single mov after optimization;
/// memcpy keeps it legal under strict aliasing and UBSan).
inline uint64_t LoadLE64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// ANDs a block's 128 match bits, shifted down so bit i is delta
/// off + i, into the `n`-bit bitmap; returns the OR of the surviving
/// words.
inline uint64_t AndBlockMatches(unsigned __int128 block_mask, size_t off,
                                size_t n, uint64_t* bitmap) {
  block_mask >>= off;
  bitmap[0] &= static_cast<uint64_t>(block_mask);
  uint64_t any = bitmap[0];
  if (n > 64) {
    bitmap[1] &= static_cast<uint64_t>(block_mask >> 64);
    any |= bitmap[1];
  }
  return any;
}

}  // namespace

__attribute__((target("avx2"))) uint64_t FilterDecodedAvx2(
    const Value* vals, size_t n, Value lo, Value hi, uint64_t* bitmap) {
  const __m256i lov = _mm256_set1_epi64x(lo);
  const __m256i hiv = _mm256_set1_epi64x(hi);
  uint64_t any = 0;
  size_t i = 0;
  for (size_t w = 0; i < n; ++w) {
    const size_t cnt = std::min<size_t>(64, n - i);
    uint64_t m = 0;
    size_t j = 0;
    for (; j + 4 <= cnt; j += 4) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(vals + i + j));
      // Out of range <=> lo > v or v > hi; movemask grabs the 4 lane signs.
      const __m256i out = _mm256_or_si256(_mm256_cmpgt_epi64(lov, v),
                                          _mm256_cmpgt_epi64(v, hiv));
      const uint64_t bad = static_cast<uint64_t>(
          _mm256_movemask_pd(_mm256_castsi256_pd(out)));
      m |= (~bad & 0xf) << j;
    }
    for (; j < cnt; ++j) {
      const Value v = vals[i + j];
      m |= static_cast<uint64_t>((v >= lo) & (v <= hi)) << j;
    }
    bitmap[w] &= m;
    any |= bitmap[w];
    i += cnt;
  }
  return any;
}

__attribute__((target("avx512f"))) uint64_t FilterDecodedAvx512(
    const Value* vals, size_t n, Value lo, Value hi, uint64_t* bitmap) {
  const __m512i lov = _mm512_set1_epi64(lo);
  const __m512i hiv = _mm512_set1_epi64(hi);
  uint64_t any = 0;
  size_t i = 0;
  for (size_t w = 0; i < n; ++w) {
    const size_t cnt = std::min<size_t>(64, n - i);
    uint64_t m = 0;
    size_t j = 0;
    for (; j + 8 <= cnt; j += 8) {
      const __m512i v = _mm512_loadu_si512(vals + i + j);
      const __mmask8 ge = _mm512_cmp_epi64_mask(lov, v, _MM_CMPINT_LE);
      const __mmask8 le = _mm512_cmp_epi64_mask(v, hiv, _MM_CMPINT_LE);
      m |= static_cast<uint64_t>(ge & le) << j;
    }
    for (; j < cnt; ++j) {
      const Value v = vals[i + j];
      m |= static_cast<uint64_t>((v >= lo) & (v <= hi)) << j;
    }
    bitmap[w] &= m;
    any |= bitmap[w];
    i += cnt;
  }
  return any;
}

__attribute__((target("avx2"))) uint64_t FilterPackedAvx2(
    const uint8_t* block, uint32_t width, uint64_t dlo, uint64_t dhi,
    size_t off, size_t n, uint64_t* bitmap) {
  FLOOD_DCHECK(width >= 1 && width <= kMaxPacked64Width);
  FLOOD_DCHECK(n >= 1 && off + n <= Column::kBlockSize);
  const uint64_t mask = (uint64_t{1} << width) - 1;
  // Deltas and bounds are < 2^58, so signed lane compares are exact.
  const __m256i mask_v = _mm256_set1_epi64x(static_cast<int64_t>(mask));
  const __m256i dlo_v = _mm256_set1_epi64x(static_cast<int64_t>(dlo));
  const __m256i dhi_v = _mm256_set1_epi64x(static_cast<int64_t>(dhi));
  const uint64_t w1 = width;
  uint64_t any = 0;
  size_t i = 0;
  for (size_t w = 0; i < n; ++w) {
    const size_t cnt = std::min<size_t>(64, n - i);
    uint64_t m = 0;
    size_t j = 0;
    for (; j + 4 <= cnt; j += 4) {
      // Each lane loads the byte-aligned 64-bit window holding its delta
      // (shift <= 7, so width + 7 <= 64 bits stay in view), then shifts and
      // masks it out. Reads past the last delta stay inside the column's
      // kDecodeSlackWords tail.
      const uint64_t b0 = (off + i + j) * w1;
      const uint64_t b1 = b0 + w1;
      const uint64_t b2 = b0 + 2 * w1;
      const uint64_t b3 = b0 + 3 * w1;
      const __m256i raw = _mm256_set_epi64x(
          static_cast<int64_t>(LoadLE64(block + (b3 >> 3))),
          static_cast<int64_t>(LoadLE64(block + (b2 >> 3))),
          static_cast<int64_t>(LoadLE64(block + (b1 >> 3))),
          static_cast<int64_t>(LoadLE64(block + (b0 >> 3))));
      const __m256i shifts = _mm256_set_epi64x(
          static_cast<int64_t>(b3 & 7), static_cast<int64_t>(b2 & 7),
          static_cast<int64_t>(b1 & 7), static_cast<int64_t>(b0 & 7));
      const __m256i d =
          _mm256_and_si256(_mm256_srlv_epi64(raw, shifts), mask_v);
      const __m256i out = _mm256_or_si256(_mm256_cmpgt_epi64(dlo_v, d),
                                          _mm256_cmpgt_epi64(d, dhi_v));
      const uint64_t bad = static_cast<uint64_t>(
          _mm256_movemask_pd(_mm256_castsi256_pd(out)));
      m |= (~bad & 0xf) << j;
    }
    for (; j < cnt; ++j) {  // Masked scalar epilogue, same window math.
      const uint64_t bpos = (off + i + j) * w1;
      const uint64_t d = (LoadLE64(block + (bpos >> 3)) >> (bpos & 7)) & mask;
      m |= static_cast<uint64_t>((d >= dlo) & (d <= dhi)) << j;
    }
    bitmap[w] &= m;
    any |= bitmap[w];
    i += cnt;
  }
  return any;
}

__attribute__((target("avx2"))) uint64_t FilterPacked8Avx2(
    const uint8_t* block, uint32_t width, uint64_t dlo, uint64_t dhi,
    size_t off, size_t n, uint64_t* bitmap) {
  FLOOD_DCHECK(width >= 1 && width <= kMaxPacked32Width);
  FLOOD_DCHECK(n >= 1 && off + n <= Column::kBlockSize);
  const auto& row = kPackedLanes32[width];
  const __m256i shuffle =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(row.shuffle));
  const __m256i shift =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(row.shift));
  // Deltas and bounds are < 2^25, so signed 32-bit compares are exact.
  const int32_t mask = static_cast<int32_t>((uint32_t{1} << width) - 1);
  const __m256i mask_v = _mm256_set1_epi32(mask);
  const __m256i dlo_v = _mm256_set1_epi32(static_cast<int32_t>(dlo));
  const __m256i dhi_v = _mm256_set1_epi32(static_cast<int32_t>(dhi));
  // Match bits of the block's groups covering [off, off + n): bit i is
  // delta i of the block.
  unsigned __int128 block_mask = 0;
  const size_t group_end = (off + n + 7) / 8;
  for (size_t g = off / 8; g < group_end; ++g) {
    const __m256i d =
        UnpackLanes8x32(block + g * width, width, shuffle, shift, mask_v);
    const __m256i out = _mm256_or_si256(_mm256_cmpgt_epi32(dlo_v, d),
                                        _mm256_cmpgt_epi32(d, dhi_v));
    const uint64_t bad = static_cast<uint64_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(out)));
    block_mask |= static_cast<unsigned __int128>(~bad & 0xff) << (8 * g);
  }
  return AndBlockMatches(block_mask, off, n, bitmap);
}

__attribute__((target("avx512f,avx512bw"))) uint64_t FilterPacked16Avx512(
    const uint8_t* block, uint32_t width, uint64_t dlo, uint64_t dhi,
    size_t off, size_t n, uint64_t* bitmap) {
  FLOOD_DCHECK(width >= 1 && width <= kMaxPacked32Width);
  FLOOD_DCHECK(n >= 1 && off + n <= Column::kBlockSize);
  FLOOD_DCHECK(dlo <= dhi);
  const auto& row = kPackedLanes32[width];
  const __m512i shuffle = _mm512_load_si512(row.shuffle);
  const __m512i shift = _mm512_load_si512(row.shift);
  const __m512i mask =
      _mm512_set1_epi32(static_cast<int32_t>((uint32_t{1} << width) - 1));
  // dlo <= d <= dhi  <=>  d - dlo <= dhi - dlo, unsigned (a delta below
  // dlo wraps high).
  const __m512i dlo_v = _mm512_set1_epi32(static_cast<int32_t>(dlo));
  const __m512i span_v = _mm512_set1_epi32(static_cast<int32_t>(dhi - dlo));
  // The whole block, unrolled; its eight 16-bit masks are packed into two
  // 64-bit halves in mask registers.
  __mmask16 m[8];
#pragma GCC unroll 8
  for (size_t g = 0; g < 8; ++g) {
    const __m512i d =
        UnpackLanes16x32(block + g * 2 * width, width, shuffle, shift, mask);
    m[g] = _mm512_cmple_epu32_mask(_mm512_sub_epi32(d, dlo_v), span_v);
  }
  const uint64_t lo = _mm512_kunpackd(_mm512_kunpackw(m[3], m[2]),
                                      _mm512_kunpackw(m[1], m[0]));
  const uint64_t hi = _mm512_kunpackd(_mm512_kunpackw(m[7], m[6]),
                                      _mm512_kunpackw(m[5], m[4]));
  const unsigned __int128 block_mask =
      static_cast<unsigned __int128>(hi) << 64 | lo;
  return AndBlockMatches(block_mask, off, n, bitmap);
}

__attribute__((target("avx512f,avx512bw"))) uint64_t FilterPackedWideAvx512(
    const uint8_t* block, uint32_t width, uint64_t dlo, uint64_t dhi,
    size_t off, size_t n, uint64_t* bitmap) {
  FLOOD_DCHECK(width > kMaxPacked32Width &&
               width <= kMaxPacked64Width);
  FLOOD_DCHECK(n >= 1 && off + n <= Column::kBlockSize);
  FLOOD_DCHECK(dlo <= dhi);
  const auto& row = kPackedLanes64[width];
  const __m512i shuffle = _mm512_load_si512(row.shuffle);
  const __m512i shift = _mm512_load_si512(row.shift);
  const __m512i mask =
      _mm512_set1_epi64(static_cast<int64_t>((uint64_t{1} << width) - 1));
  const __m512i dlo_v = _mm512_set1_epi64(static_cast<int64_t>(dlo));
  const __m512i span_v = _mm512_set1_epi64(static_cast<int64_t>(dhi - dlo));
  // The whole block, unrolled, as in FilterPacked16Avx512: sixteen 8-bit
  // masks packed into two 64-bit halves.
  __mmask8 m[16];
#pragma GCC unroll 16
  for (size_t g = 0; g < 16; ++g) {
    const __m512i d =
        UnpackLanes8x64(block + g * width, width, shuffle, shift, mask);
    m[g] = _mm512_cmple_epu64_mask(_mm512_sub_epi64(d, dlo_v), span_v);
  }
  __mmask32 q[4];
#pragma GCC unroll 4
  for (size_t i = 0; i < 4; ++i) {
    q[i] = _mm512_kunpackw(_mm512_kunpackb(m[4 * i + 3], m[4 * i + 2]),
                           _mm512_kunpackb(m[4 * i + 1], m[4 * i]));
  }
  const uint64_t lo = _mm512_kunpackd(q[1], q[0]);
  const uint64_t hi = _mm512_kunpackd(q[3], q[2]);
  const unsigned __int128 block_mask =
      static_cast<unsigned __int128>(hi) << 64 | lo;
  return AndBlockMatches(block_mask, off, n, bitmap);
}

__attribute__((target("avx2"))) uint64_t MaskedSumAvx2(const Value* vals,
                                                       uint64_t word) {
  const __m256i wv = _mm256_set1_epi64x(static_cast<int64_t>(word));
  // sel holds each lane's probe bit; (word & sel) == sel <=> lane matched.
  __m256i sel = _mm256_set_epi64x(8, 4, 2, 1);
  __m256i sum = _mm256_setzero_si256();
  for (size_t g = 0; g < 16; ++g) {
    const __m256i m =
        _mm256_cmpeq_epi64(_mm256_and_si256(wv, sel), sel);
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(vals + 4 * g));
    sum = _mm256_add_epi64(sum, _mm256_and_si256(m, v));
    sel = _mm256_slli_epi64(sel, 4);
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), sum);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

__attribute__((target("avx512f"))) uint64_t MaskedSumAvx512(
    const Value* vals, uint64_t word) {
  __m512i sum = _mm512_setzero_si512();
  for (size_t g = 0; g < 8; ++g) {
    const __mmask8 m = static_cast<__mmask8>(word >> (8 * g));
    sum = _mm512_mask_add_epi64(sum, m, sum,
                                _mm512_loadu_si512(vals + 8 * g));
  }
  // Horizontal add in uint64, not _mm512_reduce_add_epi64: the helper
  // expands to scalar signed adds, which UBSan rightly rejects when the
  // (wrapping mod 2^64 by contract) sum overflows int64.
  alignas(64) uint64_t lanes[8];
  _mm512_store_si512(reinterpret_cast<__m512i*>(lanes), sum);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] + lanes[5] +
         lanes[6] + lanes[7];
}

#else  // !FLOOD_SIMD_X86

// Link stubs for non-x86 targets. DetectedSimdLevel() is kScalar there, so
// dispatch never reaches these.
uint64_t FilterDecodedAvx2(const Value*, size_t, Value, Value, uint64_t*) {
  FLOOD_CHECK(false);
  return 0;
}
uint64_t FilterDecodedAvx512(const Value*, size_t, Value, Value, uint64_t*) {
  FLOOD_CHECK(false);
  return 0;
}
uint64_t FilterPackedAvx2(const uint8_t*, uint32_t, uint64_t, uint64_t,
                          size_t, size_t, uint64_t*) {
  FLOOD_CHECK(false);
  return 0;
}
uint64_t FilterPacked8Avx2(const uint8_t*, uint32_t, uint64_t, uint64_t,
                           size_t, size_t, uint64_t*) {
  FLOOD_CHECK(false);
  return 0;
}
uint64_t FilterPacked16Avx512(const uint8_t*, uint32_t, uint64_t, uint64_t,
                              size_t, size_t, uint64_t*) {
  FLOOD_CHECK(false);
  return 0;
}
uint64_t FilterPackedWideAvx512(const uint8_t*, uint32_t, uint64_t, uint64_t,
                                size_t, size_t, uint64_t*) {
  FLOOD_CHECK(false);
  return 0;
}
uint64_t MaskedSumAvx2(const Value*, uint64_t) {
  FLOOD_CHECK(false);
  return 0;
}
uint64_t MaskedSumAvx512(const Value*, uint64_t) {
  FLOOD_CHECK(false);
  return 0;
}

#endif  // FLOOD_SIMD_X86

}  // namespace simd
}  // namespace flood
