#include "storage/column.h"

#include <algorithm>
#include <array>
#include <utility>

#include "common/math_util.h"
#include "common/simd_level.h"
#include "storage/packed_lanes.h"

namespace flood {
namespace {

/// Unpacks `n` deltas of compile-time width `W` starting at absolute bit
/// offset `bit` of `words`, adding `base`. Branch-free: the cross-word
/// spill is always OR-ed in. `(x << 1) << (63 - shift)` equals
/// `x << (64 - shift)` for shift in [1, 63] and, at shift == 0, leaves
/// only bit 63 polluted — which the W-bit mask (W < 64) discards.
/// `words` must have one readable word past the last encoded bit
/// (FromValues allocates the slack).
template <uint32_t W>
void UnpackBlock(const uint64_t* words, uint64_t bit, Value base, size_t n,
                 Value* out) {
  // Deltas are added to the base in uint64 (wrapping, hence well-defined)
  // arithmetic: a width-64 block can hold kValueMin and kValueMax together.
  const uint64_t ubase = static_cast<uint64_t>(base);
  if constexpr (W == 0) {
    for (size_t i = 0; i < n; ++i) out[i] = base;
  } else if constexpr (W == 64) {
    // 128 * 64 bits per block keeps 64-bit-wide blocks word-aligned.
    const uint64_t* p = words + (bit >> 6);
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<Value>(ubase + p[i]);
    }
  } else {
    constexpr uint64_t kMask = (uint64_t{1} << W) - 1;
    for (size_t i = 0; i < n; ++i, bit += W) {
      const size_t word = static_cast<size_t>(bit >> 6);
      const uint32_t shift = static_cast<uint32_t>(bit & 63);
      const uint64_t lo = words[word] >> shift;
      const uint64_t hi = (words[word + 1] << 1) << (63 - shift);
      out[i] = static_cast<Value>(ubase + ((lo | hi) & kMask));
    }
  }
}

using UnpackFn = void (*)(const uint64_t*, uint64_t, Value, size_t, Value*);

template <uint32_t... Ws>
constexpr std::array<UnpackFn, sizeof...(Ws)> MakeUnpackTable(
    std::integer_sequence<uint32_t, Ws...>) {
  return {&UnpackBlock<Ws>...};
}

/// One specialized unpacker per bit width 0..64.
constexpr std::array<UnpackFn, 65> kUnpackers =
    MakeUnpackTable(std::make_integer_sequence<uint32_t, 65>{});

#if FLOOD_SIMD_X86

// Vector block decoders: each decodes the whole groups of the first `n`
// deltas of the block at `block` (its first byte) and returns how many
// values it wrote, a multiple of the group size; the scalar unpacker
// finishes the rest. Per group: the shared lane extraction
// (storage/packed_lanes.h), widening to 64 bits and the base added in
// wrapping uint64 arithmetic, as UnpackBlock does.

__attribute__((target("avx2"))) size_t DecodeLanes8x32Avx2(
    const uint8_t* block, uint32_t width, Value base, size_t n, Value* out) {
  const auto& row = kPackedLanes32[width];
  const __m256i shuffle =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(row.shuffle));
  const __m256i shift =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(row.shift));
  const __m256i mask =
      _mm256_set1_epi32(static_cast<int32_t>((uint32_t{1} << width) - 1));
  const __m256i base_v = _mm256_set1_epi64x(base);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i d =
        UnpackLanes8x32(block + i / 8 * width, width, shuffle, shift, mask);
    const __m256i lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(d));
    const __m256i hi = _mm256_cvtepu32_epi64(_mm256_extracti128_si256(d, 1));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_add_epi64(lo, base_v));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4),
                        _mm256_add_epi64(hi, base_v));
  }
  return i;
}

__attribute__((target("avx512f,avx512bw"))) size_t DecodeLanes16x32Avx512(
    const uint8_t* block, uint32_t width, Value base, size_t n, Value* out) {
  const auto& row = kPackedLanes32[width];
  const __m512i shuffle = _mm512_load_si512(row.shuffle);
  const __m512i shift = _mm512_load_si512(row.shift);
  const __m512i mask =
      _mm512_set1_epi32(static_cast<int32_t>((uint32_t{1} << width) - 1));
  const __m512i base_v = _mm512_set1_epi64(base);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i d =
        UnpackLanes16x32(block + i / 8 * width, width, shuffle, shift, mask);
    const __m512i lo = _mm512_cvtepu32_epi64(_mm512_castsi512_si256(d));
    const __m512i hi = _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(d, 1));
    _mm512_storeu_si512(out + i, _mm512_add_epi64(lo, base_v));
    _mm512_storeu_si512(out + i + 8, _mm512_add_epi64(hi, base_v));
  }
  return i;
}

__attribute__((target("avx512f,avx512bw"))) size_t DecodeLanes8x64Avx512(
    const uint8_t* block, uint32_t width, Value base, size_t n, Value* out) {
  const auto& row = kPackedLanes64[width];
  const __m512i shuffle = _mm512_load_si512(row.shuffle);
  const __m512i shift = _mm512_load_si512(row.shift);
  const __m512i mask =
      _mm512_set1_epi64(static_cast<int64_t>((uint64_t{1} << width) - 1));
  const __m512i base_v = _mm512_set1_epi64(base);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i d =
        UnpackLanes8x64(block + i / 8 * width, width, shuffle, shift, mask);
    _mm512_storeu_si512(out + i, _mm512_add_epi64(d, base_v));
  }
  return i;
}

#endif  // FLOOD_SIMD_X86

/// Packs the `n` (at most kBlockSize) values at `in` as W-bit deltas to
/// `base` into the zeroed words at `out`, filling one word at a time. A
/// block starts on a word boundary: kBlockSize * W bits is 2 * W words.
/// The bits are those of UnpackBlock's layout: value i at bit i * W,
/// spilling its high bits into the next word.
template <uint32_t W>
void PackBlock(const Value* in, size_t n, Value base, uint64_t* out) {
  const uint64_t ubase = static_cast<uint64_t>(base);
  if constexpr (W == 64) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = static_cast<uint64_t>(in[i]) - ubase;
    }
  } else if constexpr (W > 0) {
    uint64_t word = 0;
    uint32_t fill = 0;  // Bits of `word` in use.
    for (size_t i = 0; i < n; ++i) {
      const uint64_t delta = static_cast<uint64_t>(in[i]) - ubase;
      word |= delta << fill;
      fill += W;
      if (fill >= 64) {
        *out++ = word;
        fill -= 64;
        // The delta's bits that did not fit; none when fill is 0, as the
        // delta has only W < 64 bits.
        word = delta >> (W - fill);
      }
    }
    if (fill > 0) *out = word;
  }
}

using PackFn = void (*)(const Value*, size_t, Value, uint64_t*);

template <uint32_t... Ws>
constexpr std::array<PackFn, sizeof...(Ws)> MakePackTable(
    std::integer_sequence<uint32_t, Ws...>) {
  return {&PackBlock<Ws>...};
}

/// One specialized packer per bit width 0..64.
constexpr std::array<PackFn, 65> kPackers =
    MakePackTable(std::make_integer_sequence<uint32_t, 65>{});

}  // namespace

Column Column::FromValues(std::span<const Value> values) {
  Column col;
  col.size_ = values.size();

  const size_t n = values.size();
  const size_t num_blocks = (n + kBlockSize - 1) / kBlockSize;
  col.block_min_.resize(num_blocks);
  col.block_max_.resize(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t begin = b * kBlockSize;
    const size_t end = std::min(n, begin + kBlockSize);
    Value mn = values[begin];
    Value mx = values[begin];
    for (size_t i = begin + 1; i < end; ++i) {
      mn = std::min(mn, values[i]);
      mx = std::max(mx, values[i]);
    }
    col.block_min_[b] = mn;
    col.block_max_[b] = mx;
  }

  col.block_width_.resize(num_blocks);
  col.block_bit_offset_.resize(num_blocks);
  uint64_t total_bits = 0;
  for (size_t b = 0; b < num_blocks; ++b) {
    // Delta fits in the unsigned difference; int64 subtraction could
    // overflow for extreme ranges, so widen through uint64.
    const uint64_t max_delta = static_cast<uint64_t>(col.block_max_[b]) -
                               static_cast<uint64_t>(col.block_min_[b]);
    col.block_width_[b] = static_cast<uint32_t>(BitWidth(max_delta));
    col.block_bit_offset_[b] = total_bits;
    total_bits += static_cast<uint64_t>(kBlockSize) * col.block_width_[b];
  }

  col.words_.assign((total_bits + 63) / 64 + kDecodeSlackWords, 0);
  for (size_t b = 0; b < num_blocks; ++b) {
    const size_t begin = b * kBlockSize;
    kPackers[col.block_width_[b]](
        values.data() + begin, std::min(kBlockSize, n - begin),
        col.block_min_[b], col.words_.data() + col.block_bit_offset_[b] / 64);
  }
  return col;
}

size_t Column::DecodeBlockInto(size_t block, Value* out) const {
  FLOOD_DCHECK(block < NumBlocks());
  const size_t begin = block * kBlockSize;
  const size_t n = std::min(kBlockSize, size_ - begin);
  const uint32_t width = block_width_[block];
  const uint64_t bit = block_bit_offset_[block];
  const Value base = block_min_[block];
  size_t done = 0;
#if FLOOD_SIMD_X86
  if (width >= 1 && width <= kMaxPacked64Width) {
    const simd::SimdLevel level = simd::ActiveSimdLevel();
    const uint8_t* bytes =
        reinterpret_cast<const uint8_t*>(words_.data()) + bit / 8;
    if (level >= simd::SimdLevel::kAvx512) {
      done = width <= kMaxPacked32Width
                 ? DecodeLanes16x32Avx512(bytes, width, base, n, out)
                 : DecodeLanes8x64Avx512(bytes, width, base, n, out);
    } else if (level >= simd::SimdLevel::kAvx2 &&
               width <= kMaxPacked32Width) {
      done = DecodeLanes8x32Avx2(bytes, width, base, n, out);
    }
  }
#endif
  if (done < n) {
    kUnpackers[width](words_.data(), bit + done * width, base, n - done,
                      out + done);
  }
  return n;
}

size_t Column::LowerBound(size_t from, size_t end, Value v) const {
  return SortedBound</*kUpper=*/false>(from, end, v);
}

size_t Column::UpperBound(size_t from, size_t end, Value v) const {
  return SortedBound</*kUpper=*/true>(from, end, v);
}

template <bool kUpper>
size_t Column::SortedBound(size_t from, size_t end, Value v) const {
  FLOOD_DCHECK(from <= end && end <= size_);
  // Rows before the answer are exactly those with before(value).
  const auto before = [v](Value x) { return kUpper ? x <= v : x < v; };
  // The start row first: a bound that sits at the start (an exact model
  // prediction, or an upper bound past an empty match) costs one probe.
  if (from < end && !before(Get(from))) return from;
  while (from < end) {
    const size_t last = (end - 1) / kBlockSize;
    size_t b = from / kBlockSize;
    if (before(block_max_[b])) {
      // Every row of block b precedes the answer. Past it, blocks up to
      // `last` are either wholly inside the sorted run or its last block,
      // so their zone-map maxima are non-decreasing: gallop, then bisect
      // for the first block whose maximum does not precede the answer.
      size_t lo = b;
      size_t step = 1;
      size_t hi = b + 1;
      while (hi <= last && before(block_max_[hi])) {
        lo = hi;
        step <<= 1;
        hi = b + step;
      }
      hi = std::min(hi, last + 1);
      while (lo + 1 < hi) {
        const size_t mid = lo + (hi - lo) / 2;
        if (before(block_max_[mid])) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      if (hi > last) return end;
      b = hi;
      from = b * kBlockSize;
    }
    const size_t slice_end = std::min(end, (b + 1) * kBlockSize);
    const size_t pos = SearchBlock<kUpper>(b, from, slice_end, v);
    if (pos < slice_end) return pos;
    // The zone map's maximum came from a neighbouring run sharing block
    // b; the answer lies further on.
    from = slice_end;
  }
  return end;
}

template <bool kUpper>
size_t Column::SearchBlock(size_t b, size_t lo, size_t hi, Value v) const {
  FLOOD_DCHECK(lo < hi && (hi - 1) / kBlockSize == b);
  const auto before = [v](Value x) { return kUpper ? x <= v : x < v; };
  // Branch-free bisection: rows below `first` precede the answer, rows at
  // or past first + n do not.
  const auto bisect = [&](const auto& at) {
    size_t first = lo;
    size_t n = hi - lo;
    while (n > 1) {
      const size_t half = n / 2;
      first = before(at(first + half)) ? first + half : first;
      n -= half;
    }
    return first + static_cast<size_t>(before(at(first)));
  };
  const uint64_t* words = words_.data();
  const uint64_t base = static_cast<uint64_t>(block_min_[b]);
  const uint64_t width = block_width_[b];
  const uint64_t mask = width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
  // Bit of row i: bit0 + i * width, with rows counted from the column
  // start (bit0 wraps; only the sum is used).
  const uint64_t bit0 = block_bit_offset_[b] - b * kBlockSize * width;
  // Same cross-word extraction as UnpackBlock: the spill word is always
  // OR-ed in, and at shift 0 it contributes nothing.
  return bisect([words, base, width, mask, bit0](size_t i) {
    const uint64_t bit = bit0 + i * width;
    const size_t word = static_cast<size_t>(bit >> 6);
    const uint32_t shift = static_cast<uint32_t>(bit & 63);
    const uint64_t low = words[word] >> shift;
    const uint64_t spill = (words[word + 1] << 1) << (63 - shift);
    return static_cast<Value>(base + ((low | spill) & mask));
  });
}

std::vector<Value> Column::Decode() const {
  std::vector<Value> out(size_);
  DecodeInto(out.data());
  return out;
}

void Column::DecodeInto(Value* out) const {
  for (size_t b = 0; b < NumBlocks(); ++b) {
    DecodeBlockInto(b, out + b * kBlockSize);
  }
}

size_t Column::MemoryUsageBytes() const {
  return (block_min_.size() + block_max_.size()) * sizeof(Value) +
         block_width_.size() * sizeof(uint32_t) +
         block_bit_offset_.size() * sizeof(uint64_t) +
         words_.size() * sizeof(uint64_t);
}

namespace {

/// The leading byte of every column page: 1 names the block-delta
/// encoding, the only one. ReadFrom rejects any other value as corrupt.
constexpr uint8_t kBlockDeltaEncoding = 1;

/// Reads a u64 element count and pre-validates it against the bytes left
/// in `r` (each element occupies at least `elem_bytes`), so corrupt counts
/// can never drive a huge allocation.
bool ReadCount(ByteReader* r, size_t elem_bytes, size_t* out) {
  const uint64_t n = r->GetU64();
  if (!r->ok() || n > r->remaining() / elem_bytes) {
    r->MarkFailed();
    return false;
  }
  *out = static_cast<size_t>(n);
  return true;
}

template <typename T, typename GetFn>
bool ReadVector(ByteReader* r, size_t n, std::vector<T>* out, GetFn get) {
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) out->push_back(get(r));
  return r->ok();
}

}  // namespace

void Column::AppendTo(ByteWriter* w) const {
  w->PutU8(kBlockDeltaEncoding);
  w->PutU64(size_);
  w->PutWords(block_min_.data(), block_min_.size());
  w->PutWords(block_max_.data(), block_max_.size());
  // Bit widths fit a byte; bit offsets are recomputed from them on read.
  uint64_t total_bits = 0;
  for (uint32_t width : block_width_) {
    w->PutU8(static_cast<uint8_t>(width));
    total_bits += static_cast<uint64_t>(kBlockSize) * width;
  }
  // The on-disk page carries exactly one slack word (the original format);
  // any extra in-memory decode slack is zero-filled and re-grown on read.
  const size_t serialized_words = (total_bits + 63) / 64 + 1;
  FLOOD_DCHECK(serialized_words <= words_.size());
  w->PutU64(serialized_words);
  w->PutWords(words_.data(), serialized_words);
}

StatusOr<Column> Column::ReadFrom(ByteReader* r) {
  const auto fail = [] {
    return Status::InvalidArgument("truncated or corrupt column pages");
  };
  const uint8_t encoding = r->GetU8();
  const uint64_t size = r->GetU64();
  if (!r->ok() || encoding != kBlockDeltaEncoding) return fail();
  // A size near 2^64 would wrap NumBlocks() to 0 and sail past every
  // per-block bound below; any genuine column needs at least one zone-map
  // byte pair per block, so bound size by the bytes actually present.
  if (size / kBlockSize > r->remaining() / 16) return fail();

  Column col;
  col.size_ = static_cast<size_t>(size);
  const size_t num_blocks = col.NumBlocks();
  // Zone maps alone need 16 bytes per block; reject impossible sizes
  // before any allocation sized from them.
  if (num_blocks > r->remaining() / 16) return fail();
  const auto get_i64 = [](ByteReader* br) { return br->GetI64(); };
  if (!ReadVector(r, num_blocks, &col.block_min_, get_i64) ||
      !ReadVector(r, num_blocks, &col.block_max_, get_i64)) {
    return fail();
  }
  if (num_blocks > r->remaining()) return fail();
  uint64_t total_bits = 0;
  col.block_width_.reserve(num_blocks);
  col.block_bit_offset_.reserve(num_blocks);
  for (size_t b = 0; b < num_blocks; ++b) {
    const uint8_t width = r->GetU8();
    if (width > 64) return fail();
    col.block_width_.push_back(width);
    col.block_bit_offset_.push_back(total_bits);
    total_bits += static_cast<uint64_t>(kBlockSize) * width;
  }
  size_t num_words = 0;
  if (!ReadCount(r, sizeof(uint64_t), &num_words)) return fail();
  // The word count is implied by the widths (FromValues invariant,
  // including the one-word slack the unpackers rely on); a mismatch means
  // the pages are inconsistent.
  if (num_words != (total_bits + 63) / 64 + 1) return fail();
  const auto get_u64 = [](ByteReader* br) { return br->GetU64(); };
  if (!ReadVector(r, num_words, &col.words_, get_u64)) return fail();
  // Re-grow the in-memory decode slack the SIMD packed filter relies on
  // (the page stores one slack word; see AppendTo).
  col.words_.resize((total_bits + 63) / 64 + kDecodeSlackWords, 0);
  return col;
}

PrefixSums::PrefixSums(const std::vector<Value>& values) {
  sums_.resize(values.size() + 1);
  sums_[0] = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    sums_[i + 1] = sums_[i] + static_cast<uint64_t>(values[i]);
  }
}

}  // namespace flood
