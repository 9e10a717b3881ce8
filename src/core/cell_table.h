#ifndef FLOOD_CORE_CELL_TABLE_H_
#define FLOOD_CORE_CELL_TABLE_H_

#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace flood {

/// A bitmap with constant-time rank. Each 64-bit word packs 32 bits of the
/// bitmap (low half) with the number of set bits in all earlier words
/// (high half), so Rank is one word load and one popcount. Costs 2 bits per
/// position; counts up to 2^32 - 1 set bits.
class RankBitmap {
 public:
  RankBitmap() = default;
  /// All `num_bits` positions clear. Position `num_bits` is valid for Rank
  /// (it returns the total count).
  explicit RankBitmap(uint64_t num_bits)
      : words_(num_bits / 32 + 1, 0), num_bits_(num_bits) {}

  void Set(uint64_t i) {
    FLOOD_DCHECK(i < num_bits_);
    words_[i >> 5] |= uint64_t{1} << (i & 31);
  }

  /// Fills the per-word ranks; call once after the last Set.
  void Finish() {
    uint64_t rank = 0;
    for (uint64_t& w : words_) {
      const uint64_t bits = w & 0xFFFFFFFFu;
      FLOOD_CHECK(rank <= 0xFFFFFFFFu);
      w = bits | (rank << 32);
      rank += static_cast<uint64_t>(std::popcount(bits));
    }
  }

  uint64_t size() const { return num_bits_; }

  bool Test(uint64_t i) const {
    FLOOD_DCHECK(i < num_bits_);
    return (words_[i >> 5] >> (i & 31)) & 1;
  }

  /// Set bits in [0, i), for i <= size().
  size_t Rank(uint64_t i) const {
    FLOOD_DCHECK(i <= num_bits_);
    const uint64_t w = words_[i >> 5];
    const uint32_t below =
        static_cast<uint32_t>(w) & ((uint32_t{1} << (i & 31)) - 1);
    return static_cast<size_t>(w >> 32) +
           static_cast<size_t>(std::popcount(below));
  }

  size_t MemoryUsageBytes() const {
    return words_.capacity() * sizeof(uint64_t);
  }

 private:
  std::vector<uint64_t> words_;
  uint64_t num_bits_ = 0;
};

/// Flood's cell table (§3.2.1): the physical row range of every grid cell,
/// sized by the *occupied* cells. An occupancy RankBitmap over the grid
/// maps a cell id to its occupied ordinal, and `starts_` holds the first
/// row of each occupied cell plus a sentinel n. An empty cell begins where
/// the next occupied cell begins, so starts_[Rank(c)] is the first row of
/// every cell c. Cost: 2 bits per grid cell plus 4 bytes per occupied cell.
class CellTable {
 public:
  CellTable() = default;

  /// `cells_in_storage_order` is the cell id of every row in storage order
  /// (non-decreasing, each < num_cells). O(n + num_cells / 32).
  CellTable(uint64_t num_cells,
            std::span<const uint32_t> cells_in_storage_order);

  size_t num_occupied() const { return starts_.size() - 1; }

  /// Occupied cells before cell `c`, for c <= num_cells. For an occupied
  /// cell this is its ordinal; starts()[Ordinal(c)] is the first row of
  /// cell `c` (n for c == num_cells).
  size_t Ordinal(uint64_t c) const { return occupied_.Rank(c); }

  /// Physical [begin, end) row range of cell `c` (empty for empty cells).
  std::pair<size_t, size_t> Range(uint64_t c) const {
    const size_t o = Ordinal(c);
    return {starts_[o], starts_[o + (occupied_.Test(c) ? 1 : 0)]};
  }

  /// Row ranges by occupied ordinal: ordinal o spans
  /// [starts()[o], starts()[o + 1]).
  const std::vector<uint32_t>& starts() const { return starts_; }

  size_t MemoryUsageBytes() const {
    return occupied_.MemoryUsageBytes() +
           starts_.capacity() * sizeof(uint32_t);
  }

 private:
  RankBitmap occupied_;
  std::vector<uint32_t> starts_{0};
};

}  // namespace flood

#endif  // FLOOD_CORE_CELL_TABLE_H_
