#ifndef FLOOD_QUERY_SIMD_H_
#define FLOOD_QUERY_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "storage/column.h"

namespace flood {
namespace simd {

/// Vector ISA tiers the scan kernels dispatch over. Levels are ordered:
/// every tier implies the ones below it, so "at least kAvx2" is a simple
/// comparison.
enum class SimdLevel { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

const char* SimdLevelName(SimdLevel level);

/// What the hardware supports (cpuid, probed once per process). kScalar on
/// non-x86 builds.
SimdLevel DetectedSimdLevel();

/// The level kernels may actually use: DetectedSimdLevel() capped by
/// FLOOD_SIMD_LEVEL=scalar|avx2|avx512 (read once) and by
/// SetSimdLevelForTest. The cap can only mask capabilities, never invent
/// them — forcing "avx512" on an AVX2-only host still yields kAvx2.
SimdLevel ActiveSimdLevel();

/// Caps ActiveSimdLevel() below the detected tier (dispatch-fallback tests,
/// A/B benchmarks). Pass DetectedSimdLevel() to undo.
void SetSimdLevelForTest(SimdLevel cap);

/// Widest bit-packed delta the fused packed-word filter handles: a value's
/// byte-granular 64-bit load window holds width + 7 alignment bits, and the
/// delta-space bounds must stay below 2^62 for signed lane compares.
inline constexpr uint32_t kMaxPackedFilterWidth = 57;

/// Widest bit-packed delta the 8-lane packed filter handles: a delta's
/// 32-bit lane holds width + 7 alignment bits.
inline constexpr uint32_t kMaxPacked8FilterWidth = 25;

// ---------------------------------------------------------------------------
// Kernel primitives (defined in simd.cc behind per-function target
// attributes). Callers must gate on ActiveSimdLevel() >= the level in the
// name; invoking them on unsupported hardware is illegal instruction
// territory, not a graceful fallback.
// ---------------------------------------------------------------------------

/// Evaluates lo <= vals[i] <= hi (signed) for i in [0, n), n <= 128, and
/// ANDs the result into `bitmap` (bit i of word i/64 <-> vals[i]). Words
/// covering [0, n) must be pre-initialized (InitMatchBitmap); bits past n
/// are untouched. Returns the OR of the surviving words (early-out).
uint64_t FilterDecodedAvx2(const Value* vals, size_t n, Value lo, Value hi,
                           uint64_t* bitmap);
uint64_t FilterDecodedAvx512(const Value* vals, size_t n, Value lo, Value hi,
                             uint64_t* bitmap);

/// Same contract, evaluated straight off bit-packed block-delta words:
/// value i is the `width`-bit unsigned delta at absolute bit
/// `bit + i * width` of `bytes`, matched against delta-space bounds
/// dlo <= delta <= dhi. Requires 1 <= width <= kMaxPackedFilterWidth and
/// Column's decode slack (kDecodeSlackWords) past the last encoded bit —
/// lanes load 64-bit windows at byte granularity, so reads may extend a few
/// bytes past the final delta.
uint64_t FilterPackedAvx2(const uint8_t* bytes, uint64_t bit, uint32_t width,
                          uint64_t dlo, uint64_t dhi, size_t n,
                          uint64_t* bitmap);

/// The 8-lane variant for 1 <= width <= kMaxPacked8FilterWidth, over the
/// deltas [off, off + n) of one block (off + n <= Column::kBlockSize):
/// delta i of the block sits at bit i * width of `block`, the block's
/// first byte (block bit offsets are multiples of 128). Eight deltas span
/// exactly `width` bytes, so each group of eight starts on a byte: two
/// 16-byte loads, one byte shuffle and one per-lane shift extract it into
/// 32-bit lanes. Bit i of the bitmap is delta off + i; the same contract
/// otherwise, including reads up to 15 bytes past the block's last delta.
uint64_t FilterPacked8Avx2(const uint8_t* block, uint32_t width, uint64_t dlo,
                           uint64_t dhi, size_t off, size_t n,
                           uint64_t* bitmap);

/// Sum (wrapping uint64) of vals[i] over the set bits of `word`. All 64
/// lanes are loaded and masked, so vals must have 64 readable entries even
/// when the high bits are clear.
uint64_t MaskedSumAvx2(const Value* vals, uint64_t word);
uint64_t MaskedSumAvx512(const Value* vals, uint64_t word);

/// Total set bits across `words[0 .. n)`, accumulated pairwise (the
/// popcount tree COUNT aggregation reduces through).
inline uint64_t PopcountWords(const uint64_t* words, size_t n) {
  uint64_t even = 0;
  uint64_t odd = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    even += static_cast<uint64_t>(__builtin_popcountll(words[i]));
    odd += static_cast<uint64_t>(__builtin_popcountll(words[i + 1]));
  }
  if (i < n) even += static_cast<uint64_t>(__builtin_popcountll(words[i]));
  return even + odd;
}

}  // namespace simd
}  // namespace flood

#endif  // FLOOD_QUERY_SIMD_H_
