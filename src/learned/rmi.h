#ifndef FLOOD_LEARNED_RMI_H_
#define FLOOD_LEARNED_RMI_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "storage/column.h"

namespace flood {

/// y = slope * x + intercept over double-converted values.
struct LinearModel {
  double slope = 0.0;
  double intercept = 0.0;

  double Predict(double x) const { return slope * x + intercept; }

  /// Least-squares fit of (xs[i], ys[i]). Falls back to a constant model
  /// when xs has no spread.
  static LinearModel Fit(const std::vector<double>& xs,
                         const std::vector<double>& ys);
};

/// A two-layer Recursive Model Index over a *sorted* value array, used two
/// ways in this repo:
///
///  1. As a guaranteed-monotone empirical CDF for Flood's flattening step
///     (§5.1): Cdf(v) in [0, 1] is non-decreasing in v, which grid
///     correctness requires (§6 "Multi-dimensional CDFs").
///  2. As a learned B-tree replacement for position lookup (§7.2's
///     clustered baseline, Fig. 17's "RMI" per-cell model): Lookup(v)
///     returns a predicted rank plus a certified search interval.
///
/// Structure: the root is a linear-spline router whose knots sit at
/// equi-depth quantiles of the training data (the paper's non-leaf layers
/// are linear splines), so each leaf owns an equal share of the mass even
/// under heavy skew; each leaf holds a least-squares linear model of
/// rank(v), post-processed to be non-decreasing and clamped to the leaf's
/// true rank interval, which makes the whole model monotone.
class Rmi {
 public:
  /// Lookup result: `pred` is the model's rank estimate; the true
  /// lower-bound rank of the looked-up value is guaranteed to lie in
  /// [lo, hi].
  struct Bounds {
    size_t pred;
    size_t lo;
    size_t hi;
  };

  Rmi() = default;

  /// Trains over `sorted` (ascending). `num_leaves` defaults to
  /// max(1, n/256) when 0.
  static Rmi Train(const std::vector<Value>& sorted, size_t num_leaves = 0);

  size_t num_keys() const { return n_; }
  size_t num_leaves() const { return leaves_.size(); }

  /// Monotone empirical CDF estimate in [0, 1].
  double Cdf(Value v) const {
    if (n_ == 0) return 0.0;
    return PredictRank(v) / static_cast<double>(n_);
  }

  /// Rank estimate plus certified bounds for lower-bound search.
  Bounds Lookup(Value v) const;

  size_t MemoryUsageBytes() const;

  /// Spline-root routing: the leaf owning v is the last knot <= v (leaf 0
  /// below the first knot), i.e. upper_bound - 1 clamped to 0. A
  /// branch-free bisection: the answer stays in [base, base + len), and
  /// each step is one compare feeding a conditional move.
  size_t LeafIndex(Value v) const {
    const Value* base = knots_.data();
    size_t len = knots_.size();
    while (len > 1) {
      const size_t half = len / 2;
      base = base[half] <= v ? base + half : base;
      len -= half;
    }
    return static_cast<size_t>(base - knots_.data());
  }

  /// First value of each leaf, ascending.
  const std::vector<Value>& knots() const { return knots_; }

 private:
  struct Leaf {
    LinearModel model;
    // True rank interval covered by this leaf: ranks of its first and
    // one-past-last training points. Clamping predictions into
    // [rank_begin, rank_end] enforces cross-leaf monotonicity and gives
    // Lookup() its certified interval.
    uint32_t rank_begin = 0;
    uint32_t rank_end = 0;
  };

  double PredictRank(Value v) const {
    const Leaf& leaf = leaves_[LeafIndex(v)];
    double r = leaf.model.Predict(static_cast<double>(v));
    if (r < leaf.rank_begin) r = leaf.rank_begin;
    if (r > leaf.rank_end) r = leaf.rank_end;
    return r;
  }

  size_t n_ = 0;
  std::vector<Value> knots_;  ///< First value of each leaf (ascending).
  std::vector<Leaf> leaves_;
};

}  // namespace flood

#endif  // FLOOD_LEARNED_RMI_H_
