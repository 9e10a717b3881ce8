#include "query/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/macros.h"

// The vector paths are x86-only and use per-function target attributes, so
// the library builds (and runtime-dispatches to scalar) on any compiler or
// architecture without -mavx2 in the global flags.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FLOOD_SIMD_X86 1
#include <immintrin.h>
#else
#define FLOOD_SIMD_X86 0
#endif

namespace flood {
namespace simd {

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      return "scalar";
  }
  return "scalar";
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel level = [] {
#if FLOOD_SIMD_X86
    if (__builtin_cpu_supports("avx512f")) return SimdLevel::kAvx512;
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
    return SimdLevel::kScalar;
  }();
  return level;
}

std::optional<SimdLevel> ParseSimdLevel(std::string_view name) {
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (name == SimdLevelName(level)) return level;
  }
  return std::nullopt;
}

namespace {
/// ISA cap: -1 = not yet resolved from FLOOD_SIMD_LEVEL. Benign race on
/// first use: resolution is idempotent.
std::atomic<int> g_simd_cap{-1};
}  // namespace

SimdLevel ActiveSimdLevel() {
  int cap = g_simd_cap.load(std::memory_order_relaxed);
  if (cap < 0) {
    SimdLevel level = SimdLevel::kAvx512;  // Unset: no cap.
    if (const char* env = std::getenv("FLOOD_SIMD_LEVEL")) {
      // A typo must not silently leave the vector kernel on (or off).
      const std::optional<SimdLevel> parsed = ParseSimdLevel(env);
      if (!parsed.has_value()) {
        std::fprintf(stderr,
                     "FLOOD_SIMD_LEVEL=%s: expected scalar|avx2|avx512\n",
                     env);
        std::abort();
      }
      level = *parsed;
    }
    cap = static_cast<int>(level);
    g_simd_cap.store(cap, std::memory_order_relaxed);
  }
  // The cap masks capabilities; it can never grant more than the hardware.
  return std::min(DetectedSimdLevel(), static_cast<SimdLevel>(cap));
}

void SetSimdLevelForTest(SimdLevel cap) {
  g_simd_cap.store(static_cast<int>(cap), std::memory_order_relaxed);
}

#if FLOOD_SIMD_X86

namespace {

/// Unaligned little-endian 64-bit load (single mov after optimization;
/// memcpy keeps it legal under strict aliasing and UBSan).
inline uint64_t LoadLE64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// FilterPacked8Avx2's constants, one row per width. A group of eight
/// deltas is loaded as two 16-byte halves: the low half from the group's
/// first byte (lanes 0-3), the high half from byte `(4 * width) / 8`, the
/// one holding lane 4's first bit (lanes 4-7). Lane j's shuffle gathers
/// the four bytes from the one holding its first bit, relative to its
/// half; its shift is that first bit's position within the byte. Lane 3
/// (7) starts at most 12 bytes into its half at width 25, so every
/// gathered byte is inside the 16 loaded.
struct Packed8Tables {
  alignas(32) uint8_t shuffle[kMaxPacked8FilterWidth + 1][32];
  alignas(32) uint32_t shift[kMaxPacked8FilterWidth + 1][8];
};

constexpr Packed8Tables MakePacked8Tables() {
  Packed8Tables t{};
  for (uint32_t w = 1; w <= kMaxPacked8FilterWidth; ++w) {
    const uint32_t high_half = (4 * w) / 8;
    for (uint32_t j = 0; j < 8; ++j) {
      const uint32_t bit = j * w;
      const uint32_t byte = bit / 8 - (j < 4 ? 0 : high_half);
      for (uint32_t k = 0; k < 4; ++k) {
        t.shuffle[w][4 * j + k] = static_cast<uint8_t>(byte + k);
      }
      t.shift[w][j] = bit % 8;
    }
  }
  return t;
}

constexpr Packed8Tables kPacked8 = MakePacked8Tables();

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
    const uint8_t* bytes, uint64_t bit, uint32_t width, uint64_t dlo,
    uint64_t dhi, size_t n, uint64_t* bitmap) {
  FLOOD_DCHECK(width >= 1 && width <= kMaxPackedFilterWidth);
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
      const uint64_t b0 = bit + (i + j) * w1;
      const uint64_t b1 = b0 + w1;
      const uint64_t b2 = b0 + 2 * w1;
      const uint64_t b3 = b0 + 3 * w1;
      const __m256i raw = _mm256_set_epi64x(
          static_cast<int64_t>(LoadLE64(bytes + (b3 >> 3))),
          static_cast<int64_t>(LoadLE64(bytes + (b2 >> 3))),
          static_cast<int64_t>(LoadLE64(bytes + (b1 >> 3))),
          static_cast<int64_t>(LoadLE64(bytes + (b0 >> 3))));
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
      const uint64_t bpos = bit + (i + j) * w1;
      const uint64_t d = (LoadLE64(bytes + (bpos >> 3)) >> (bpos & 7)) & mask;
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
  FLOOD_DCHECK(width >= 1 && width <= kMaxPacked8FilterWidth);
  FLOOD_DCHECK(n >= 1 && off + n <= Column::kBlockSize);
  const __m256i shuffle = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kPacked8.shuffle[width]));
  const __m256i shift = _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kPacked8.shift[width]));
  // Deltas and bounds are < 2^25, so signed 32-bit compares are exact.
  const int32_t mask = static_cast<int32_t>((uint32_t{1} << width) - 1);
  const __m256i mask_v = _mm256_set1_epi32(mask);
  const __m256i dlo_v = _mm256_set1_epi32(static_cast<int32_t>(dlo));
  const __m256i dhi_v = _mm256_set1_epi32(static_cast<int32_t>(dhi));
  const size_t high_half = (4 * width) / 8;
  // Match bits of the block's groups covering [off, off + n): bit i of the
  // pair is delta i of the block.
  uint64_t block_mask[2] = {0, 0};
  const size_t group_end = (off + n + 7) / 8;
  for (size_t g = off / 8; g < group_end; ++g) {
    const uint8_t* p = block + g * width;
    const auto* lo_half = reinterpret_cast<const __m128i*>(p);
    const auto* hi_half = reinterpret_cast<const __m128i*>(p + high_half);
    const __m256i raw = _mm256_loadu2_m128i(hi_half, lo_half);
    const __m256i lanes = _mm256_shuffle_epi8(raw, shuffle);
    const __m256i d = _mm256_and_si256(_mm256_srlv_epi32(lanes, shift), mask_v);
    const __m256i out = _mm256_or_si256(_mm256_cmpgt_epi32(dlo_v, d),
                                        _mm256_cmpgt_epi32(d, dhi_v));
    const uint64_t bad = static_cast<uint64_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(out)));
    block_mask[g / 8] |= (~bad & 0xff) << (8 * (g % 8));
  }
  // Shift the block's mask down to the range: bit i <-> delta off + i.
  uint64_t lo = block_mask[0];
  uint64_t hi = block_mask[1];
  if (off >= 64) {
    lo = hi >> (off - 64);
    hi = 0;
  } else if (off > 0) {
    lo = (lo >> off) | (hi << (64 - off));
    hi >>= off;
  }
  bitmap[0] &= lo;
  uint64_t any = bitmap[0];
  if (n > 64) {
    bitmap[1] &= hi;
    any |= bitmap[1];
  }
  return any;
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
uint64_t FilterPackedAvx2(const uint8_t*, uint64_t, uint32_t, uint64_t,
                          uint64_t, size_t, uint64_t*) {
  FLOOD_CHECK(false);
  return 0;
}
uint64_t FilterPacked8Avx2(const uint8_t*, uint32_t, uint64_t, uint64_t,
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
