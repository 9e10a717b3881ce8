#include "query/workload.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/radix_sort.h"

namespace flood {

DataSample DataSample::FromTable(const Table& table, size_t sample_size,
                                 uint64_t seed) {
  DataSample s;
  const size_t n = table.num_rows();
  const size_t d = table.num_dims();
  const size_t k = std::min(sample_size, n);

  // Choose k distinct row ids: Floyd's algorithm would avoid the full
  // permutation, but a partial Fisher-Yates over an id vector is simple and
  // build-time only. The chosen ids are then read back in ascending order
  // (sequential-ish column access) from a bitmap; when k == n every row is
  // chosen and the draws need not be made.
  std::vector<RowId> ids(n);
  std::iota(ids.begin(), ids.end(), RowId{0});
  if (k < n) {
    Rng rng(seed);
    for (size_t i = 0; i < k; ++i) {
      const size_t j = i + static_cast<size_t>(rng.UniformInt(
                               0, static_cast<int64_t>(n - i) - 1));
      std::swap(ids[i], ids[j]);
    }
    std::vector<uint64_t> chosen((n + 63) / 64, 0);
    for (size_t i = 0; i < k; ++i) {
      chosen[ids[i] / 64] |= uint64_t{1} << (ids[i] % 64);
    }
    ids.clear();
    for (size_t w = 0; w < chosen.size(); ++w) {
      for (uint64_t bits = chosen[w]; bits != 0; bits &= bits - 1) {
        ids.push_back(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      }
    }
  }

  // Sorted copies: a radix sort over the values with their sign bit
  // flipped, so unsigned key order is signed value order.
  constexpr uint64_t kSignBit = uint64_t{1} << 63;
  std::vector<uint64_t> keys(k);
  std::vector<uint64_t> scratch;
  s.rows_.resize(d);
  s.sorted_.resize(d);
  for (size_t dim = 0; dim < d; ++dim) {
    auto& col = s.rows_[dim];
    col.reserve(k);
    for (RowId r : ids) col.push_back(table.Get(r, dim));
    for (size_t i = 0; i < k; ++i) {
      keys[i] = static_cast<uint64_t>(col[i]) ^ kSignBit;
    }
    RadixSort(&keys, &scratch, 0, 64, 11);
    auto& sorted = s.sorted_[dim];
    sorted.resize(k);
    for (size_t i = 0; i < k; ++i) {
      sorted[i] = static_cast<Value>(keys[i] ^ kSignBit);
    }
  }
  return s;
}

double DataSample::Selectivity(size_t dim, const ValueRange& range) const {
  FLOOD_DCHECK(dim < sorted_.size());
  const auto& v = sorted_[dim];
  if (v.empty()) return 0.0;
  if (range.IsEmpty()) return 0.0;
  const auto lo = std::lower_bound(v.begin(), v.end(), range.lo);
  const auto hi = std::upper_bound(v.begin(), v.end(), range.hi);
  return static_cast<double>(hi - lo) / static_cast<double>(v.size());
}

double DataSample::MeasuredQuerySelectivity(const Query& query) const {
  const size_t n = num_rows();
  if (n == 0) return 0.0;
  size_t matched = 0;
  for (size_t i = 0; i < n; ++i) {
    bool ok = true;
    for (size_t dim = 0; dim < query.num_dims() && dim < num_dims(); ++dim) {
      if (!query.IsFiltered(dim)) continue;
      if (!query.range(dim).Contains(Get(i, dim))) {
        ok = false;
        break;
      }
    }
    if (ok) ++matched;
  }
  return static_cast<double>(matched) / static_cast<double>(n);
}

double Workload::FilterFrequency(size_t dim) const {
  if (queries_.empty()) return 0.0;
  size_t n = 0;
  for (const auto& q : queries_) {
    if (dim < q.num_dims() && q.IsFiltered(dim)) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(queries_.size());
}

double Workload::AvgSelectivity(size_t dim, const DataSample& sample) const {
  if (queries_.empty()) return 1.0;
  double total = 0.0;
  for (const auto& q : queries_) {
    if (dim < q.num_dims() && q.IsFiltered(dim)) {
      total += sample.Selectivity(dim, q.range(dim));
    } else {
      total += 1.0;
    }
  }
  return total / static_cast<double>(queries_.size());
}

Workload Workload::Sample(size_t n, uint64_t seed) const {
  if (n >= queries_.size()) return *this;
  std::vector<Query> qs = queries_;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const size_t j = i + static_cast<size_t>(rng.UniformInt(
                             0, static_cast<int64_t>(qs.size() - i) - 1));
    std::swap(qs[i], qs[j]);
  }
  qs.resize(n);
  return Workload(std::move(qs));
}

std::pair<Workload, Workload> Workload::Split(double train_fraction,
                                              uint64_t seed) const {
  std::vector<Query> qs = queries_;
  Rng rng(seed);
  for (size_t i = qs.size(); i > 1; --i) {
    const size_t j =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(qs[i - 1], qs[j]);
  }
  const size_t n_train = static_cast<size_t>(
      train_fraction * static_cast<double>(qs.size()));
  Workload train(std::vector<Query>(qs.begin(), qs.begin() + n_train));
  Workload test(std::vector<Query>(qs.begin() + n_train, qs.end()));
  return {std::move(train), std::move(test)};
}

}  // namespace flood
