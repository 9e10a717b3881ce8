#ifndef FLOOD_STORAGE_COLUMN_H_
#define FLOOD_STORAGE_COLUMN_H_

#include <cstdint>
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

/// An immutable in-memory column.
///
/// Supports two encodings:
///  * kPlain: a flat array of 64-bit values.
///  * kBlockDelta: the paper's block-delta compression (§7.1) — values are
///    grouped into blocks of 128; each value is stored as the delta to the
///    block minimum, bit-packed with the narrowest width that fits the
///    block. Element access stays O(1).
///
/// Both encodings carry a per-block zone map (min/max value per block of
/// kBlockSize rows) so scan kernels can skip or exact-accept whole blocks
/// without decoding; see ScanRange in query/scan_util.h.
class Column {
 public:
  enum class Encoding { kPlain, kBlockDelta };

  static constexpr size_t kBlockSize = 128;

  /// Readable (zeroed) words kept past the last encoded bit of `words_`.
  /// The width-specialized unpackers and LowerBound/UpperBound read one
  /// word past a value's own; the SIMD packed filters need the second
  /// (query/simd.h): the 4-lane filter's byte-granular 64-bit lane loads
  /// reach up to 7 bytes past the last delta, and the 8-lane filter's
  /// 16-byte group loads up to 15 bytes past the last block. The slack is
  /// in-memory only — AppendTo serializes exactly one slack word, so the
  /// on-disk format is unchanged.
  static constexpr size_t kDecodeSlackWords = 2;

  Column() = default;

  /// Builds a column from `values` using the requested encoding.
  static Column FromValues(std::vector<Value> values,
                           Encoding encoding = Encoding::kBlockDelta);

  /// Number of values.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Encoding encoding() const { return encoding_; }

  /// Random access; constant time under both encodings.
  Value Get(size_t i) const {
    FLOOD_DCHECK(i < size_);
    if (encoding_ == Encoding::kPlain) return plain_[i];
    return GetBlockDelta(i);
  }

  /// Calls f(index, value) for every index in [begin, end). Decodes
  /// block-wise, which is considerably faster than repeated Get() for
  /// sequential scans.
  template <typename F>
  void ForEach(size_t begin, size_t end, F&& f) const {
    FLOOD_DCHECK(begin <= end && end <= size_);
    if (encoding_ == Encoding::kPlain) {
      for (size_t i = begin; i < end; ++i) f(i, plain_[i]);
      return;
    }
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

  /// Zone map: smallest / largest value inside block `b`. Valid for both
  /// encodings.
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

  /// Decodes all values of block `block` into `out` (capacity >=
  /// kBlockSize) and returns how many were written (kBlockSize except for
  /// a trailing partial block). Branch-free width-specialized bit
  /// unpacking: one indirect call per 128 values instead of a div/mod and
  /// shift-mask per value.
  size_t DecodeBlockInto(size_t block, Value* out) const;

  /// The raw bit-packed deltas of one kBlockDelta block, for kernels that
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

  /// Fills `out` for block `b`. Returns false under kPlain (no packed
  /// representation; scan the decoded values instead).
  bool GetPackedBlock(size_t b, PackedBlock* out) const {
    FLOOD_DCHECK(b < NumBlocks());
    if (encoding_ == Encoding::kPlain) return false;
    out->bytes = reinterpret_cast<const uint8_t*>(words_.data());
    out->bit_offset = block_bit_offset_[b];
    out->base = block_min_[b];
    out->width = block_width_[b];
    return true;
  }

  /// Software-prefetches block `b`'s encoded bytes (packed words or plain
  /// values) into cache — issued by scan kernels for the next
  /// zone-map-surviving block while the current one filters.
  void PrefetchBlock(size_t b) const {
    FLOOD_DCHECK(b < NumBlocks());
    const size_t begin = b * kBlockSize;
    const char* p;
    size_t bytes;
    if (encoding_ == Encoding::kPlain) {
      p = reinterpret_cast<const char*>(plain_.data() + begin);
      bytes = std::min(kBlockSize, size_ - begin) * sizeof(Value);
    } else {
      const uint64_t bit = block_bit_offset_[b];
      p = reinterpret_cast<const char*>(words_.data()) + (bit >> 3);
      bytes = (static_cast<size_t>(block_width_[b]) * kBlockSize + 7) / 8;
    }
    for (size_t off = 0; off < bytes; off += 64) {
      __builtin_prefetch(p + off, /*rw=*/0, /*locality=*/2);
    }
  }

  /// Materializes the column into a flat vector.
  std::vector<Value> Decode() const;

  /// Heap footprint of the encoded representation, in bytes.
  size_t MemoryUsageBytes() const;

  /// Appends the encoded representation (raw pages: zone maps + either the
  /// plain values or the bit-packed words) to `w`. The round-trip through
  /// ReadFrom is bit-exact — no re-encoding — so a restored column returns
  /// identical values in identical storage order at identical cost.
  void AppendTo(ByteWriter* w) const;

  /// Parses AppendTo output from `r`. Every length and width is validated
  /// against the remaining input before any allocation, so truncated or
  /// corrupt pages yield InvalidArgument, never UB.
  static StatusOr<Column> ReadFrom(ByteReader* r);

 private:
  template <bool kUpper>
  size_t SortedBound(size_t from, size_t end, Value v) const;

  /// SortedBound's in-block step over rows [lo, hi) of block `b`.
  template <bool kUpper>
  size_t SearchBlock(size_t b, size_t lo, size_t hi, Value v) const;

  Value GetBlockDelta(size_t i) const {
    const size_t block = i / kBlockSize;
    const uint32_t width = block_width_[block];
    const uint64_t bit =
        block_bit_offset_[block] + (i % kBlockSize) * width;
    // uint64 (wrapping) addition; see ForEach.
    return static_cast<Value>(static_cast<uint64_t>(block_min_[block]) +
                              ExtractBits(bit, width));
  }

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

  Encoding encoding_ = Encoding::kPlain;
  size_t size_ = 0;

  // kPlain storage.
  std::vector<Value> plain_;

  // Zone maps, both encodings. block_min_ doubles as the delta base under
  // kBlockDelta.
  std::vector<Value> block_min_;
  std::vector<Value> block_max_;

  // kBlockDelta storage.
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

  /// Sum of values in [begin, end).
  int64_t RangeSum(size_t begin, size_t end) const {
    FLOOD_DCHECK(begin <= end && end < sums_.size());
    return sums_[end] - sums_[begin];
  }

  bool empty() const { return sums_.size() <= 1; }
  size_t MemoryUsageBytes() const { return sums_.size() * sizeof(int64_t); }

 private:
  std::vector<int64_t> sums_;
};

}  // namespace flood

#endif  // FLOOD_STORAGE_COLUMN_H_
