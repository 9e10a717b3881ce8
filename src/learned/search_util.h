#ifndef FLOOD_LEARNED_SEARCH_UTIL_H_
#define FLOOD_LEARNED_SEARCH_UTIL_H_

#include <cstddef>

#include "common/macros.h"

namespace flood {

/// Exponential (galloping) search for the first index i in [from, end) with
/// get(i) >= v, assuming get is non-decreasing on [begin, end) and that the
/// answer is known to be >= from (e.g. `from` is a lower-bound model
/// prediction). Returns end if no such index.
template <typename Get, typename V>
size_t GallopLowerBound(const Get& get, size_t from, size_t end, V v) {
  if (from >= end || get(from) >= v) return from;
  // Invariant: get(lo) < v.
  size_t lo = from;
  size_t step = 1;
  size_t hi = from + step;
  while (hi < end && get(hi) < v) {
    lo = hi;
    step <<= 1;
    hi = from + step;
  }
  if (hi > end) hi = end;
  // Binary search in (lo, hi].
  while (lo + 1 < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (get(mid) < v) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

/// Plain binary lower bound over an accessor (the Fig. 17 "Binary"
/// baseline and the clustered index).
template <typename Get, typename V>
size_t BinaryLowerBound(const Get& get, size_t begin, size_t end, V v) {
  size_t lo = begin;
  size_t hi = end;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (get(mid) < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// Plain binary upper bound over an accessor.
template <typename Get, typename V>
size_t BinaryUpperBound(const Get& get, size_t begin, size_t end, V v) {
  size_t lo = begin;
  size_t hi = end;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (get(mid) <= v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace flood

#endif  // FLOOD_LEARNED_SEARCH_UTIL_H_
