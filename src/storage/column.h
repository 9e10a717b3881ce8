#ifndef FLOOD_STORAGE_COLUMN_H_
#define FLOOD_STORAGE_COLUMN_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/macros.h"
#include "common/status.h"

namespace flood {

/// Attribute values are 64-bit signed integers (paper §7.1: strings are
/// dictionary-encoded and decimals are scaled to integers before indexing).
using Value = int64_t;
using RowId = uint64_t;

inline constexpr Value kValueMin = INT64_MIN;
inline constexpr Value kValueMax = INT64_MAX;

/// An immutable in-memory column in the paper's block-delta compression
/// (§7.1): values are grouped into blocks of 128; each value is stored as
/// the delta to the block minimum, bit-packed with the narrowest width that
/// fits the block. Element access stays O(1).
///
/// Every block carries a zone map (its min/max value) so scan kernels can
/// skip or exact-accept whole blocks without decoding; see ScanRange in
/// query/scan_util.h.
class Column {
 public:
  static constexpr size_t kBlockSize = 128;

  /// Readable (zeroed) words kept past the last encoded bit of `words_`.
  /// The width-specialized unpackers and LowerBound/UpperBound read one
  /// word past a value's own; the vector decoders and the SIMD packed
  /// filters need the second (storage/packed_lanes.h, query/simd.h): the
  /// 4-lane filter's byte-granular 64-bit lane loads reach up to 7 bytes
  /// past the last delta, and the 16-byte group loads up to 15 bytes past
  /// the last block for 32-bit lanes, 9 for 64-bit ones. The slack is
  /// in-memory only — AppendTo serializes exactly one slack word, so the
  /// on-disk format is unchanged.
  static constexpr size_t kDecodeSlackWords = 2;

  Column() = default;

  /// Builds a column from `values`. Works a block at a time: one pass
  /// takes each block's zone map, and one more packs its deltas a word at a
  /// time.
  static Column FromValues(std::span<const Value> values);

  /// Number of values.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Random access in constant time.
  Value Get(size_t i) const {
    FLOOD_DCHECK(i < size_);
    const size_t block = i / kBlockSize;
    const uint64_t width = block_width_[block];
    const uint64_t bit =
        block_bit_offset_[block] + (i % kBlockSize) * width;
    // Branch-free, as in SearchBlock: the spill word is always OR-ed in
    // (it contributes nothing at shift 0) and stays readable through the
    // decode slack.
    const size_t word = static_cast<size_t>(bit >> 6);
    const uint32_t shift = static_cast<uint32_t>(bit & 63);
    const uint64_t low = words_[word] >> shift;
    const uint64_t spill = (words_[word + 1] << 1) << (63 - shift);
    const uint64_t mask =
        width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    // uint64 (wrapping) addition; see ForEach.
    return static_cast<Value>(static_cast<uint64_t>(block_min_[block]) +
                              ((low | spill) & mask));
  }

  /// Calls f(index, value) for every index in [begin, end). Decodes
  /// block-wise, which is considerably faster than repeated Get() for
  /// sequential scans.
  template <typename F>
  void ForEach(size_t begin, size_t end, F&& f) const {
    FLOOD_DCHECK(begin <= end && end <= size_);
    size_t i = begin;
    while (i < end) {
      const size_t block = i / kBlockSize;
      const size_t block_end = std::min(end, (block + 1) * kBlockSize);
      // uint64 (wrapping) addition: a width-64 block can pair kValueMin
      // with kValueMax, where signed addition would overflow.
      const uint64_t base = static_cast<uint64_t>(block_min_[block]);
      const uint32_t width = block_width_[block];
      const uint64_t bit_base = block_bit_offset_[block];
      for (; i < block_end; ++i) {
        const uint64_t bit = bit_base + (i % kBlockSize) * width;
        f(i, static_cast<Value>(base + ExtractBits(bit, width)));
      }
    }
  }

  /// Number of kBlockSize-row blocks (the last one may be partial).
  size_t NumBlocks() const { return (size_ + kBlockSize - 1) / kBlockSize; }

  /// Zone map: smallest / largest value inside block `b`.
  Value BlockMin(size_t b) const {
    FLOOD_DCHECK(b < block_min_.size());
    return block_min_[b];
  }
  Value BlockMax(size_t b) const {
    FLOOD_DCHECK(b < block_max_.size());
    return block_max_[b];
  }

  /// Bound search over a sorted row range: the first index i in
  /// [from, end) with Get(i) >= v (LowerBound) or Get(i) > v (UpperBound),
  /// or `end` if there is none. Rows [from, end) must be non-decreasing,
  /// and `from` must not pass the answer: the run's first row, or a
  /// lower-bound model prediction (Plm::Predict) inside the run.
  ///
  /// Checks the row at `from`, then gallops over the zone maps (BlockMax)
  /// to the first block that can hold the bound and binary-searches that
  /// one block branch-free with its base, width and bit offset loaded
  /// once. The run's first and last blocks may also hold rows of unsorted
  /// neighbouring runs, whose values then only loosen the zone map: when
  /// the in-block search reaches the end of the run's slice of a block, it
  /// continues into the next block.
  size_t LowerBound(size_t from, size_t end, Value v) const;
  size_t UpperBound(size_t from, size_t end, Value v) const;

  /// Decodes all values of block `block` into `out` and returns how many
  /// were written: kBlockSize, or fewer for a trailing partial block, and
  /// exactly that many slots are written. Widths 1..25 decode 16 (AVX-512)
  /// or 8 (AVX2) deltas per vector step, widths 26..57 8 per step on
  /// AVX-512 (storage/packed_lanes.h); the rest, the partial group at the
  /// end of a trailing block, hosts without AVX2 and
  /// FLOOD_SIMD_LEVEL=scalar take the branch-free width-specialized scalar
  /// unpacker. Every path yields the same values.
  size_t DecodeBlockInto(size_t block, Value* out) const;

  /// The raw bit-packed deltas of one block, for kernels that
  /// filter without materializing values (the SIMD packed path): value i of
  /// the block is the `width`-bit unsigned delta at absolute bit
  /// `bit_offset + i * width` of `bytes`, added to `base`. `bytes` stays
  /// readable for kDecodeSlackWords past the column's last encoded bit.
  struct PackedBlock {
    const uint8_t* bytes = nullptr;
    uint64_t bit_offset = 0;
    Value base = 0;
    uint32_t width = 0;
  };

  /// Block `b`'s packed deltas.
  PackedBlock GetPackedBlock(size_t b) const {
    FLOOD_DCHECK(b < NumBlocks());
    return {reinterpret_cast<const uint8_t*>(words_.data()),
            block_bit_offset_[b], block_min_[b], block_width_[b]};
  }

  /// Materializes the column into a flat vector.
  std::vector<Value> Decode() const;

  /// Decodes every value into `out` (size() slots), block by block through
  /// DecodeBlockInto.
  void DecodeInto(Value* out) const;

  /// Heap footprint of the encoded representation, in bytes.
  size_t MemoryUsageBytes() const;

  /// Appends the encoded representation (raw pages: zone maps, bit widths
  /// and the bit-packed words) to `w`. The round-trip through
  /// ReadFrom is bit-exact — no re-encoding — so a restored column returns
  /// identical values in identical storage order at identical cost.
  void AppendTo(ByteWriter* w) const;

  /// Parses AppendTo output from `r`. Every length and width is validated
  /// against the remaining input before any allocation, so truncated or
  /// corrupt pages (an encoding byte other than 1 included) yield
  /// InvalidArgument, never UB.
  static StatusOr<Column> ReadFrom(ByteReader* r);

 private:
  template <bool kUpper>
  size_t SortedBound(size_t from, size_t end, Value v) const;

  /// SortedBound's in-block step over rows [lo, hi) of block `b`.
  template <bool kUpper>
  size_t SearchBlock(size_t b, size_t lo, size_t hi, Value v) const;

  /// Reads `width` bits starting at absolute bit offset `bit` from words_.
  uint64_t ExtractBits(uint64_t bit, uint32_t width) const {
    if (width == 0) return 0;
    const size_t word = bit >> 6;
    const uint32_t shift = static_cast<uint32_t>(bit & 63);
    uint64_t v = words_[word] >> shift;
    if (shift + width > 64) {
      v |= words_[word + 1] << (64 - shift);
    }
    if (width == 64) return v;
    return v & ((uint64_t{1} << width) - 1);
  }

  size_t size_ = 0;

  // Zone maps; block_min_ doubles as the delta base.
  std::vector<Value> block_min_;
  std::vector<Value> block_max_;

  // Packed deltas.
  std::vector<uint32_t> block_width_;
  std::vector<uint64_t> block_bit_offset_;
  std::vector<uint64_t> words_;
};

/// Prefix-sum side column enabling O(1) SUM over exact ranges (§7.1
/// optimization 2). sums[i] = sum of values[0..i).
class PrefixSums {
 public:
  PrefixSums() = default;

  /// Builds prefix sums over `values`.
  explicit PrefixSums(const std::vector<Value>& values);

  /// Sum of values in [begin, end), wrapping modulo 2^64 as SumVisitor
  /// does.
  int64_t RangeSum(size_t begin, size_t end) const {
    FLOOD_DCHECK(begin <= end && end < sums_.size());
    return static_cast<int64_t>(sums_[end] - sums_[begin]);
  }

  bool empty() const { return sums_.size() <= 1; }
  size_t MemoryUsageBytes() const { return sums_.size() * sizeof(uint64_t); }

 private:
  /// Unsigned, so the running sum wraps instead of overflowing.
  std::vector<uint64_t> sums_;
};

}  // namespace flood

#endif  // FLOOD_STORAGE_COLUMN_H_
