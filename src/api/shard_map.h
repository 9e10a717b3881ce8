#ifndef FLOOD_API_SHARD_MAP_H_
#define FLOOD_API_SHARD_MAP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/query.h"
#include "storage/table.h"

namespace flood {

/// Key-range partitioning of the value space of ONE dimension (the "sort
/// dimension", by analogy with Flood's layout: the dimension the grid
/// sorts within cells is also the natural scatter key) across N shards.
///
/// Shard i owns the contiguous inclusive range [lower(i), upper(i)]:
///
///   shard 0:   [kValueMin,  bound[0] - 1]
///   shard i:   [bound[i-1], bound[i] - 1]
///   shard N-1: [bound[N-2], kValueMax]
///
/// The bounds cover the whole value space with no gaps and no overlap, so
/// every row routes to exactly one shard and every non-empty range query
/// intersects at least one shard. A query whose sort-dim filter is
/// disjoint from a shard's range provably has zero matches there — that
/// is the scatter-pruning the serving router exploits (src/serve/router.h).
///
/// Immutable after construction; freely copyable and thread-safe to read.
class ShardMap {
 public:
  /// Single-shard map over `sort_dim`: everything routes to shard 0.
  explicit ShardMap(size_t sort_dim = 0) : sort_dim_(sort_dim) {}

  /// Builds a map from explicit lower bounds: `bounds[i]` is the first
  /// value owned by shard i + 1 (so N shards take N - 1 bounds; empty
  /// bounds = one shard). Bounds must be strictly increasing and greater
  /// than kValueMin, or InvalidArgument.
  static StatusOr<ShardMap> FromBounds(size_t sort_dim,
                                       std::vector<Value> bounds);

  /// Learns boundaries from the data: sorts the values of `sort_dim` and
  /// cuts at the `num_shards`-quantiles, so shards own equal row counts
  /// (not equal value spans — skewed data still balances). Duplicate-heavy
  /// columns may yield fewer shards than requested (a value is never split
  /// across shards); the result always has >= 1 shard, and every shard is
  /// guaranteed to own at least one row of `table`.
  static ShardMap FromQuantiles(const Table& table, size_t sort_dim,
                                size_t num_shards);

  size_t sort_dim() const { return sort_dim_; }
  size_t num_shards() const { return bounds_.size() + 1; }

  /// The shard owning value `v` of the sort dimension. O(log N).
  size_t ShardForValue(Value v) const;

  /// Inclusive shard-index interval [first, last] whose ranges intersect
  /// `range`. Empty ranges (lo > hi) intersect nothing; callers short-
  /// circuit them before asking (FLOOD_DCHECK enforced).
  std::pair<size_t, size_t> ShardsForRange(const ValueRange& range) const;

  /// Shards a query can match: its sort-dim filter interval when the
  /// query has one, every shard otherwise (a query that does not filter
  /// the sort dimension must fan out to all shards).
  std::pair<size_t, size_t> ShardsForQuery(const Query& query) const;

  /// Inclusive value range owned by shard `s`.
  ValueRange RangeOf(size_t s) const;

  /// The raw lower bounds (size num_shards() - 1), for serialization and
  /// the `flood_serve --bounds` flag.
  const std::vector<Value>& bounds() const { return bounds_; }

  /// Debug rendering, e.g. "dim 0: [min..99][100..499][500..max]".
  std::string ToString() const;

 private:
  ShardMap(size_t sort_dim, std::vector<Value> bounds)
      : sort_dim_(sort_dim), bounds_(std::move(bounds)) {}

  size_t sort_dim_ = 0;
  /// bounds_[i] = first sort-dim value owned by shard i + 1; strictly
  /// increasing.
  std::vector<Value> bounds_;
};

}  // namespace flood

#endif  // FLOOD_API_SHARD_MAP_H_
