#ifndef FLOOD_QUERY_SIMD_H_
#define FLOOD_QUERY_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "common/simd_level.h"
#include "storage/column.h"
#include "storage/packed_lanes.h"

namespace flood {
namespace simd {

// The packed filters take deltas of 1..kMaxPacked64Width bits; the
// 32-bit-lane ones (8 lanes on AVX2, 16 on AVX-512) 1..kMaxPacked32Width
// (storage/packed_lanes.h).

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

/// Same contract, evaluated straight off one block's bit-packed deltas
/// [off, off + n) (off + n <= Column::kBlockSize): delta i of the block is
/// the `width`-bit unsigned value at bit i * width of `block`, the block's
/// first byte (block bit offsets are multiples of 128), matched against
/// delta-space bounds dlo <= delta <= dhi. Bit i of the bitmap is delta
/// off + i. All four packed filters take this signature. This one, for
/// 1 <= width <= kMaxPacked64Width, loads each delta's byte-aligned 64-bit
/// window into one of 4 lanes, reading up to 7 bytes past the last delta
/// it uses (inside Column's kDecodeSlackWords for the final block).
uint64_t FilterPackedAvx2(const uint8_t* block, uint32_t width, uint64_t dlo,
                          uint64_t dhi, size_t off, size_t n,
                          uint64_t* bitmap);

/// The 8-lane variant for 1 <= width <= kMaxPacked32Width. Eight deltas
/// span exactly `width` bytes, so each group of eight starts on a byte:
/// two 16-byte loads, one byte shuffle and one per-lane shift extract it
/// into 32-bit lanes. Reads up to 15 bytes past the block's last delta.
uint64_t FilterPacked8Avx2(const uint8_t* block, uint32_t width, uint64_t dlo,
                           uint64_t dhi, size_t off, size_t n,
                           uint64_t* bitmap);

/// The AVX-512 packed filters, with FilterPacked8Avx2's contract (deltas
/// [off, off + n) of one block at `block`, dlo <= dhi). The 16-lane one
/// takes widths 1..kMaxPacked32Width: each step gathers sixteen
/// deltas into 32-bit lanes with four 16-byte loads, one vpshufb, one
/// variable shift and one mask, reading up to 15 bytes past the block's
/// last delta. The wide one takes widths kMaxPacked32Width + 1 ..
/// kMaxPacked64Width, eight deltas per step in 64-bit lanes, reading
/// up to 9 bytes past the block. Both test the range as one unsigned
/// compare, (d - dlo) <= (dhi - dlo), into a k-mask, and filter the whole
/// block unrolled, whatever the range: its k-masks are packed into the
/// block's 128 match bits in mask registers, then shifted down to `off`.
uint64_t FilterPacked16Avx512(const uint8_t* block, uint32_t width,
                              uint64_t dlo, uint64_t dhi, size_t off,
                              size_t n, uint64_t* bitmap);
uint64_t FilterPackedWideAvx512(const uint8_t* block, uint32_t width,
                                uint64_t dlo, uint64_t dhi, size_t off,
                                size_t n, uint64_t* bitmap);

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
