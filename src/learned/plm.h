#ifndef FLOOD_LEARNED_PLM_H_
#define FLOOD_LEARNED_PLM_H_

#include <cstdint>
#include <vector>

#include "learned/static_btree.h"
#include "storage/column.h"

namespace flood {

/// Piecewise Linear Model of a CDF (paper §5.2).
///
/// Trained greedily over a sorted value list V: walking distinct values in
/// increasing order, each (v, D(v)) pair — D(v) the rank of the first
/// occurrence of v — is added to the current segment; when the segment's
/// *average* under-estimation error exceeds the budget delta, a new segment
/// begins at that value. Segments are constructed to be lower bounds:
/// Predict(v) <= D(v), so rectification after prediction only ever searches
/// forward (GallopLowerBound; Column::LowerBound in Flood's refinement).
///
/// Segment boundary keys are indexed with a cache-optimized StaticBTree.
class Plm {
 public:
  Plm() = default;

  /// Trains over `sorted` (ascending). `delta` is the average-error budget
  /// per segment; lower delta = more segments = faster lookups but more
  /// space (Fig. 17b).
  static Plm Train(const std::vector<Value>& sorted, double delta);

  /// Lower-bound estimate of the rank of the first element >= v.
  /// Guaranteed <= the true rank; rectify by searching forward.
  size_t Predict(Value v) const {
    if (segments_.empty()) return 0;
    const size_t s = btree_.FindSegment(v);
    const Segment& seg = segments_[s];
    if (v < seg.first_value) return 0;  // v precedes all data.
    double p = seg.base + seg.slope * (static_cast<double>(v) -
                                       static_cast<double>(seg.first_value));
    const double hi = static_cast<double>(seg.end_rank);
    if (p > hi) p = hi;
    return static_cast<size_t>(p);
  }

  size_t num_segments() const { return segments_.size(); }
  size_t num_keys() const { return n_; }

  size_t MemoryUsageBytes() const {
    return segments_.size() * sizeof(Segment) + btree_.MemoryUsageBytes();
  }

 private:
  struct Segment {
    Value first_value = 0;   ///< Smallest value in the slice.
    double base = 0.0;       ///< Rank of first_value's first occurrence.
    double slope = 0.0;      ///< Ranks per value unit; lower-bound slope.
    uint32_t end_rank = 0;   ///< Rank where the next slice starts.
  };

  size_t n_ = 0;
  std::vector<Segment> segments_;
  StaticBTree btree_;
};

}  // namespace flood

#endif  // FLOOD_LEARNED_PLM_H_
