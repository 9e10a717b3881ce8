#ifndef FLOOD_STORAGE_PACKED_LANES_H_
#define FLOOD_STORAGE_PACKED_LANES_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/simd_level.h"

#if FLOOD_SIMD_X86
// GCC 12's AVX-512 intrinsics fill their unused pass-through operand with a
// self-initialized "undefined" vector, which -W(maybe-)uninitialized flags
// wherever they inline (GCC bug 105593); the warnings are silenced for the
// header's own lines only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace flood {

/// Lane extraction shared by Column's vector block decode and the packed
/// scan filters (query/simd.h): a group of bit-packed deltas is gathered
/// into vector lanes with byte-granular 16-byte loads, one byte shuffle
/// and one per-lane shift, then masked to the block's width.
///
/// A block's deltas start on a byte (block bit offsets are multiples of
/// 128, as every block holds 128 × width bits), and eight deltas span
/// exactly `width` bytes, so every group of eight starts on a byte too.
/// A lane gathers the bytes from the one holding its delta's first bit,
/// and shifts by that bit's position within the byte: a lane of L bits
/// holds deltas of up to L − 7 bits.
///
/// A group is loaded as 16-byte chunks, each serving the lanes of one
/// 128-bit register lane (the unit vpshufb shuffles within). Chunk c
/// starts at the byte holding its first lane's first bit, PackedChunkByte.

/// Widest delta a 32-bit lane holds: width + 7 <= 32.
inline constexpr uint32_t kMaxPacked32Width = 25;

/// Widest delta a 64-bit lane holds: width + 7 <= 64.
inline constexpr uint32_t kMaxPacked64Width = 57;

/// The first byte of chunk `chunk` of a group, relative to the group's
/// first byte, for chunks of `lanes_per_chunk` deltas of `width` bits.
constexpr size_t PackedChunkByte(uint32_t width, size_t lanes_per_chunk,
                                 size_t chunk) {
  return chunk * lanes_per_chunk * width / 8;
}

/// One width's constants for a 64-byte (zmm) group: lane j's shuffle
/// bytes and shift. For 32-bit lanes, the first 32 shuffle bytes and
/// eight shifts serve the AVX2 (ymm) group of eight.
template <typename Lane>
struct PackedLaneRow {
  static constexpr size_t kLanes = 64 / sizeof(Lane);
  static constexpr size_t kLanesPerChunk = 16 / sizeof(Lane);
  alignas(64) uint8_t shuffle[64];
  alignas(64) Lane shift[kLanes];
};

/// Rows for widths kMinWidth..kMaxWidth, indexed by width (lower rows stay
/// zero).
template <typename Lane, uint32_t kMinWidth, uint32_t kMaxWidth>
constexpr std::array<PackedLaneRow<Lane>, kMaxWidth + 1> MakePackedLaneTable() {
  using Row = PackedLaneRow<Lane>;
  std::array<Row, kMaxWidth + 1> t{};
  for (uint32_t w = kMinWidth; w <= kMaxWidth; ++w) {
    for (size_t j = 0; j < Row::kLanes; ++j) {
      const size_t chunk = j / Row::kLanesPerChunk;
      const size_t bit = j * w;
      // Lane j's first byte within its chunk: at most 12 at width 25 for
      // 32-bit lanes and 8 at width 57 for 64-bit ones, so every gathered
      // byte is inside the 16 loaded.
      const size_t byte =
          bit / 8 - PackedChunkByte(w, Row::kLanesPerChunk, chunk);
      for (size_t k = 0; k < sizeof(Lane); ++k) {
        t[w].shuffle[sizeof(Lane) * j + k] = static_cast<uint8_t>(byte + k);
      }
      t[w].shift[j] = static_cast<Lane>(bit % 8);
    }
  }
  return t;
}

/// 32-bit lanes for widths 1..kMaxPacked32Width: 16 deltas (2 × width
/// bytes) per zmm, 8 per ymm. The pattern repeats every eight lanes.
inline constexpr auto kPackedLanes32 =
    MakePackedLaneTable<uint32_t, 1, kMaxPacked32Width>();

/// 64-bit lanes for widths kMaxPacked32Width + 1..kMaxPacked64Width:
/// 8 deltas (width bytes) per zmm.
inline constexpr auto kPackedLanes64 =
    MakePackedLaneTable<uint64_t, kMaxPacked32Width + 1,
                        kMaxPacked64Width>();

#if FLOOD_SIMD_X86

/// The eight `width`-bit deltas of the group starting at `p`, in 32-bit
/// lanes (width <= kMaxPacked32Width). Reads 16 bytes from p and from
/// p + PackedChunkByte(width, 4, 1).
__attribute__((target("avx2"), always_inline)) inline __m256i
UnpackLanes8x32(const uint8_t* p, uint32_t width, __m256i shuffle,
                __m256i shift, __m256i mask) {
  const size_t c1 = PackedChunkByte(width, 4, 1);
  const __m256i raw =
      _mm256_loadu2_m128i(reinterpret_cast<const __m128i*>(p + c1),
                          reinterpret_cast<const __m128i*>(p));
  return _mm256_and_si256(
      _mm256_srlv_epi32(_mm256_shuffle_epi8(raw, shuffle), shift), mask);
}

/// Four 16-byte loads, from `p` plus the given chunk offsets, in one zmm.
__attribute__((target("avx512f"), always_inline)) inline __m512i
LoadChunks4(const uint8_t* p, size_t c1, size_t c2, size_t c3) {
  const auto at = [p](size_t off) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + off));
  };
  __m512i raw = _mm512_castsi128_si512(at(0));
  raw = _mm512_inserti32x4(raw, at(c1), 1);
  raw = _mm512_inserti32x4(raw, at(c2), 2);
  return _mm512_inserti32x4(raw, at(c3), 3);
}

/// The sixteen `width`-bit deltas of the group starting at `p`, in 32-bit
/// lanes (width <= kMaxPacked32Width). Reads 16 bytes from p + c for each
/// c in {0, ⌊width/2⌋, width, width + ⌊width/2⌋}: at most 15 bytes past
/// the group's last delta.
__attribute__((target("avx512f,avx512bw"), always_inline)) inline __m512i
UnpackLanes16x32(const uint8_t* p, uint32_t width, __m512i shuffle,
                 __m512i shift, __m512i mask) {
  const size_t c1 = PackedChunkByte(width, 4, 1);
  const __m512i raw = LoadChunks4(p, c1, width, width + c1);
  return _mm512_and_si512(
      _mm512_srlv_epi32(_mm512_shuffle_epi8(raw, shuffle), shift), mask);
}

/// The eight `width`-bit deltas of the group starting at `p`, in 64-bit
/// lanes (width <= kMaxPacked64Width). Reads 16 bytes from p + c for each
/// c in {0, ⌊width/4⌋, ⌊width/2⌋, ⌊3·width/4⌋}: at most 16 − ⌈width/4⌉
/// bytes past the group's last delta.
__attribute__((target("avx512f,avx512bw"), always_inline)) inline __m512i
UnpackLanes8x64(const uint8_t* p, uint32_t width, __m512i shuffle,
                __m512i shift, __m512i mask) {
  const __m512i raw =
      LoadChunks4(p, PackedChunkByte(width, 2, 1),
                  PackedChunkByte(width, 2, 2), PackedChunkByte(width, 2, 3));
  return _mm512_and_si512(
      _mm512_srlv_epi64(_mm512_shuffle_epi8(raw, shuffle), shift), mask);
}

#endif  // FLOOD_SIMD_X86

}  // namespace flood

#endif  // FLOOD_STORAGE_PACKED_LANES_H_
