#ifndef FLOOD_COMMON_RADIX_SORT_H_
#define FLOOD_COMMON_RADIX_SORT_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/macros.h"

namespace flood {

/// Stable LSD radix sort of `keys` by their bits [lo_bit, hi_bit),
/// `digit_bits` (1..16) at a time, least significant digit first. Keys
/// that agree on those bits keep their input order, so keys whose low bits
/// carry an ascending tiebreak (a row id) come out ordered by (field,
/// tiebreak). The range first narrows to the bits on which some keys
/// differ; one counting pass then builds every remaining digit's
/// histogram, and each digit costs one O(n) scatter, except that a digit
/// on which all keys agree is skipped. `scratch` is working space; its
/// contents on return are unspecified.
inline void RadixSort(std::vector<uint64_t>* keys,
                      std::vector<uint64_t>* scratch, unsigned lo_bit,
                      unsigned hi_bit, unsigned digit_bits) {
  FLOOD_DCHECK(lo_bit <= hi_bit && hi_bit <= 64);
  FLOOD_DCHECK(digit_bits >= 1 && digit_bits <= 16);
  const size_t n = keys->size();
  if (n < 2 || lo_bit >= hi_bit) return;
  FLOOD_CHECK(n <= std::numeric_limits<uint32_t>::max());
  // Only the bits on which some keys differ can reorder them: narrow
  // [lo_bit, hi_bit) to those before any digit is counted.
  const uint64_t first = (*keys)[0];
  uint64_t differ = 0;
  for (const uint64_t key : *keys) differ |= key ^ first;
  if (hi_bit < 64) differ &= (uint64_t{1} << hi_bit) - 1;
  differ &= ~uint64_t{0} << lo_bit;
  if (differ == 0) return;
  lo_bit = static_cast<unsigned>(std::countr_zero(differ));
  hi_bit = static_cast<unsigned>(std::bit_width(differ));
  const unsigned num_digits = (hi_bit - lo_bit + digit_bits - 1) / digit_bits;
  const size_t radix = size_t{1} << digit_bits;
  // The top digit may be narrower than digit_bits: bits at and above
  // hi_bit never take part.
  unsigned shifts[64];
  uint64_t masks[64];
  for (unsigned d = 0; d < num_digits; ++d) {
    shifts[d] = lo_bit + d * digit_bits;
    masks[d] = (uint64_t{1} << std::min(digit_bits, hi_bit - shifts[d])) - 1;
  }
  std::vector<uint32_t> counts(num_digits * radix, 0);
  for (const uint64_t key : *keys) {
    for (unsigned d = 0; d < num_digits; ++d) {
      ++counts[d * radix + ((key >> shifts[d]) & masks[d])];
    }
  }

  scratch->resize(n);
  uint64_t* src = keys->data();
  uint64_t* dst = scratch->data();
  for (unsigned d = 0; d < num_digits; ++d) {
    const unsigned shift = shifts[d];
    const uint64_t mask = masks[d];
    uint32_t* offsets = counts.data() + d * radix;
    if (offsets[(src[0] >> shift) & mask] == n) continue;  // Constant digit.
    uint32_t sum = 0;
    for (size_t b = 0; b < radix; ++b) {
      const uint32_t c = offsets[b];
      offsets[b] = sum;
      sum += c;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = src[i];
      dst[offsets[(key >> shift) & mask]++] = key;
    }
    std::swap(src, dst);
  }
  if (src != keys->data()) keys->swap(*scratch);
}

}  // namespace flood

#endif  // FLOOD_COMMON_RADIX_SORT_H_
