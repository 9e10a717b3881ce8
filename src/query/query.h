#ifndef FLOOD_QUERY_QUERY_H_
#define FLOOD_QUERY_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/column.h"
#include "storage/table.h"

namespace flood {

/// Inclusive value range [lo, hi]. An unfiltered dimension spans
/// [kValueMin, kValueMax].
struct ValueRange {
  Value lo = kValueMin;
  Value hi = kValueMax;

  bool Contains(Value v) const { return lo <= v && v <= hi; }
  bool IsFullRange() const { return lo == kValueMin && hi == kValueMax; }
  bool IsEmpty() const { return lo > hi; }
};

/// The aggregation a query performs over matching rows (paper App. A runs
/// all experiments as aggregations; examples also use kCollect to retrieve
/// row ids).
struct AggSpec {
  enum class Kind { kCount, kSum };
  Kind kind = Kind::kCount;
  size_t dim = 0;  // Summed dimension for kSum.
};

/// A conjunctive filter predicate: a range per dimension, i.e. a
/// hyper-rectangle (paper §3). Equality predicates are ranges with lo == hi.
class Query {
 public:
  Query() = default;

  /// Creates an unfiltered query over `num_dims` dimensions.
  explicit Query(size_t num_dims) : ranges_(num_dims) {}

  size_t num_dims() const { return ranges_.size(); }

  void SetRange(size_t dim, Value lo, Value hi) {
    FLOOD_DCHECK(dim < ranges_.size());
    ranges_[dim] = ValueRange{lo, hi};
  }
  void SetEquals(size_t dim, Value v) { SetRange(dim, v, v); }

  const ValueRange& range(size_t dim) const {
    FLOOD_DCHECK(dim < ranges_.size());
    return ranges_[dim];
  }

  bool IsFiltered(size_t dim) const { return !ranges_[dim].IsFullRange(); }

  /// Number of dimensions with a non-trivial filter.
  size_t NumFiltered() const;

  /// True if some dimension has an empty range (query matches nothing).
  bool IsEmpty() const;

  /// Slow-path predicate check for one row of `table`.
  bool Matches(const Table& table, RowId row) const {
    for (size_t d = 0; d < ranges_.size(); ++d) {
      if (ranges_[d].IsFullRange()) continue;
      if (!ranges_[d].Contains(table.Get(row, d))) return false;
    }
    return true;
  }

  const AggSpec& agg() const { return agg_; }
  void set_agg(AggSpec agg) { agg_ = agg; }

  /// Debug rendering, e.g. "[d0 in 3..17] [d2 == 5] COUNT".
  std::string ToString() const;

 private:
  std::vector<ValueRange> ranges_;
  AggSpec agg_;
};

/// Fluent builder for queries:
///   Query q = QueryBuilder(6).Range(0, lo, hi).Equals(2, v).Sum(5).Build();
class QueryBuilder {
 public:
  explicit QueryBuilder(size_t num_dims) : query_(num_dims) {}

  QueryBuilder& Range(size_t dim, Value lo, Value hi) {
    query_.SetRange(dim, lo, hi);
    return *this;
  }
  QueryBuilder& Equals(size_t dim, Value v) {
    query_.SetEquals(dim, v);
    return *this;
  }
  QueryBuilder& Count() {
    query_.set_agg({AggSpec::Kind::kCount, 0});
    return *this;
  }
  QueryBuilder& Sum(size_t dim) {
    query_.set_agg({AggSpec::Kind::kSum, dim});
    return *this;
  }

  Query Build() { return query_; }

 private:
  Query query_;
};

}  // namespace flood

#endif  // FLOOD_QUERY_QUERY_H_
