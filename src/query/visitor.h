#ifndef FLOOD_QUERY_VISITOR_H_
#define FLOOD_QUERY_VISITOR_H_

#include <cstdint>
#include <vector>

#include "query/simd.h"
#include "storage/column.h"

namespace flood {

/// Visitors accumulate an aggregation over matching rows (paper App. A).
///
/// Indexes call VisitRow(row) for individually-checked matches and
/// VisitExactRange(begin, end) for ranges known a priori to match entirely
/// (the "exact range" optimization of §7.1, which skips per-value filter
/// checks and can use precomputed cumulative aggregates).
///
/// The block and simd scan kernels (query/scan_util.h) deliver filtered
/// matches one block at a time through VisitMatchBitmap, so aggregating
/// visitors may use popcount / cumulative aggregates instead of per-row
/// dispatch.
///
/// Index scan loops are templated over the concrete visitor type so the
/// per-row call devirtualizes; the abstract interface exists for the
/// type-erased public API.
class Visitor {
 public:
  enum class Kind { kCount, kSum, kCollect };

  virtual ~Visitor() = default;
  virtual Kind kind() const = 0;
  virtual void VisitRow(RowId row) = 0;
  virtual void VisitExactRange(RowId begin, RowId end) = 0;

  /// Block-granular delivery: rows [begin, begin + n) with bit b of
  /// bitmap[b / 64] set <=> row begin + b matched. Calls arrive in
  /// ascending row order, the range never straddles a Column::kBlockSize
  /// block, bits past n are always clear, and all-zero words MAY appear
  /// inside the bitmap. The default calls VisitRow per set bit, in
  /// ascending order; aggregating visitors override with block reductions.
  virtual void VisitMatchBitmap(RowId begin, size_t n,
                                const uint64_t* bitmap) {
    for (size_t w = 0; w * 64 < n; ++w) {
      const RowId base = begin + static_cast<RowId>(w) * 64;
      uint64_t word = bitmap[w];
      while (word != 0) {
        const int b = __builtin_ctzll(word);
        word &= word - 1;
        VisitRow(base + static_cast<RowId>(b));
      }
    }
  }
};

/// COUNT(*) accumulator.
class CountVisitor final : public Visitor {
 public:
  Kind kind() const override { return Kind::kCount; }
  void VisitRow(RowId) override { ++count_; }
  void VisitExactRange(RowId begin, RowId end) override {
    count_ += end - begin;
  }
  void VisitMatchBitmap(RowId, size_t n, const uint64_t* bitmap) override {
    count_ += simd::PopcountWords(bitmap, (n + 63) / 64);
  }

  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

/// SUM(column) accumulator. When the index supplies a PrefixSums side column
/// (see set_prefix_sums), exact ranges are answered in O(1).
class SumVisitor final : public Visitor {
 public:
  /// `column` is the aggregated column in the index's storage order.
  explicit SumVisitor(const Column* column) : column_(column) {}

  Kind kind() const override { return Kind::kSum; }

  void set_prefix_sums(const PrefixSums* sums) { prefix_sums_ = sums; }

  void VisitRow(RowId row) override {
    Add(column_->Get(static_cast<size_t>(row)));
  }

  void VisitExactRange(RowId begin, RowId end) override {
    if (prefix_sums_ != nullptr && !prefix_sums_->empty()) {
      Add(prefix_sums_->RangeSum(static_cast<size_t>(begin),
                                 static_cast<size_t>(end)));
      return;
    }
    column_->ForEach(static_cast<size_t>(begin), static_cast<size_t>(end),
                     [this](size_t, Value v) { Add(v); });
  }

  /// Full words are answered from the cumulative aggregate (O(1) with
  /// prefix sums). Partial words of a block-aligned delivery on an AVX2
  /// host take a SIMD masked sum over the aggregated column's block,
  /// decoded once; otherwise (scalar host, clipped range) each set bit
  /// is added through a random-access Get.
  void VisitMatchBitmap(RowId begin, size_t n,
                        const uint64_t* bitmap) override {
    const simd::SimdLevel level = simd::ActiveSimdLevel();
    const bool vector = level >= simd::SimdLevel::kAvx2 &&
                        begin % Column::kBlockSize == 0 &&
                        n <= Column::kBlockSize;
    bool decoded = false;
    for (size_t w = 0; w * 64 < n; ++w) {
      uint64_t word = bitmap[w];
      if (word == 0) continue;
      const RowId base = begin + static_cast<RowId>(w) * 64;
      if (word == ~uint64_t{0}) {
        VisitExactRange(base, base + 64);  // Prefix-sum fast path.
        continue;
      }
      if (!vector) {
        while (word != 0) {
          const int b = __builtin_ctzll(word);
          word &= word - 1;
          Add(column_->Get(static_cast<size_t>(base) +
                           static_cast<size_t>(b)));
        }
        continue;
      }
      if (!decoded) {
        column_->DecodeBlockInto(static_cast<size_t>(begin) /
                                     Column::kBlockSize,
                                 scratch_);
        decoded = true;
      }
      sum_ += level >= simd::SimdLevel::kAvx512
                  ? simd::MaskedSumAvx512(scratch_ + w * 64, word)
                  : simd::MaskedSumAvx2(scratch_ + w * 64, word);
    }
  }

  int64_t sum() const { return static_cast<int64_t>(sum_); }

 private:
  /// SUM wraps modulo 2^64 on overflow (well-defined, unlike signed
  /// accumulation): extreme-valued columns can exceed the int64 range.
  void Add(Value v) { sum_ += static_cast<uint64_t>(v); }

  const Column* column_;
  const PrefixSums* prefix_sums_ = nullptr;
  uint64_t sum_ = 0;
  /// Block decode scratch for the vectorized path. Zero-initialized so
  /// masked-out lanes past a partial block read defined values.
  Value scratch_[Column::kBlockSize] = {};
};

/// Collects the (storage-order) row ids of all matches. Used by examples
/// and correctness tests; result-set semantics, order not specified.
class CollectVisitor final : public Visitor {
 public:
  Kind kind() const override { return Kind::kCollect; }
  void VisitRow(RowId row) override { rows_.push_back(row); }
  void VisitExactRange(RowId begin, RowId end) override {
    for (RowId r = begin; r < end; ++r) rows_.push_back(r);
  }

  const std::vector<RowId>& rows() const { return rows_; }
  std::vector<RowId>& mutable_rows() { return rows_; }

 private:
  std::vector<RowId> rows_;
};

}  // namespace flood

#endif  // FLOOD_QUERY_VISITOR_H_
