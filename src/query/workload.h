#ifndef FLOOD_QUERY_WORKLOAD_H_
#define FLOOD_QUERY_WORKLOAD_H_

#include <utility>
#include <vector>

#include "common/rng.h"
#include "query/query.h"
#include "storage/table.h"

namespace flood {

/// A row-wise random sample of a table, with per-dimension sorted copies.
/// Used wherever the paper samples the dataset (§4.2, §7.7): marginal
/// selectivity estimates, scanned-point estimates, flattening training.
class DataSample {
 public:
  DataSample() = default;

  /// Samples `sample_size` rows uniformly without replacement (or all rows
  /// if the table is smaller).
  static DataSample FromTable(const Table& table, size_t sample_size,
                              uint64_t seed);

  size_t num_rows() const { return rows_.empty() ? 0 : rows_[0].size(); }
  size_t num_dims() const { return rows_.size(); }

  /// Value of sampled row `i` in dimension `dim`.
  Value Get(size_t i, size_t dim) const { return rows_[dim][i]; }

  /// Sorted sample values for a dimension.
  const std::vector<Value>& sorted(size_t dim) const { return sorted_[dim]; }

  /// Fraction of sampled rows whose `dim` value lies in `range`.
  double Selectivity(size_t dim, const ValueRange& range) const;

  /// Fraction of sampled rows matching the full predicate (joint estimate).
  double MeasuredQuerySelectivity(const Query& query) const;

 private:
  // rows_[dim][i]: value of the i-th sampled row in `dim` (column-major).
  std::vector<std::vector<Value>> rows_;
  std::vector<std::vector<Value>> sorted_;
};

/// An ordered collection of queries, presumed drawn from one distribution.
/// Flood trains on one workload sample and is evaluated on another from the
/// same distribution (paper §7.3).
class Workload {
 public:
  Workload() = default;
  explicit Workload(std::vector<Query> queries)
      : queries_(std::move(queries)) {}

  void Add(Query q) { queries_.push_back(std::move(q)); }
  size_t size() const { return queries_.size(); }
  bool empty() const { return queries_.empty(); }
  const Query& operator[](size_t i) const { return queries_[i]; }
  const std::vector<Query>& queries() const { return queries_; }

  auto begin() const { return queries_.begin(); }
  auto end() const { return queries_.end(); }

  /// Fraction of queries that filter on `dim`.
  double FilterFrequency(size_t dim) const;

  /// Average marginal selectivity of `dim` across queries (unfiltered
  /// queries contribute 1.0), estimated on `sample`. Lower = more selective.
  double AvgSelectivity(size_t dim, const DataSample& sample) const;

  /// Random subsample of `n` queries (all queries if n >= size).
  Workload Sample(size_t n, uint64_t seed) const;

  /// Splits into (train, test) with `train_fraction` of queries in train,
  /// after a seeded shuffle.
  std::pair<Workload, Workload> Split(double train_fraction,
                                      uint64_t seed) const;

 private:
  std::vector<Query> queries_;
};

}  // namespace flood

#endif  // FLOOD_QUERY_WORKLOAD_H_
