#include "query/multidim_index.h"

#include <algorithm>
#include <numeric>

namespace flood {

std::vector<size_t> BuildContext::DimsBySelectivity(const Table& table) const {
  const size_t num_dims = table.num_dims();
  std::vector<size_t> dims(num_dims);
  std::iota(dims.begin(), dims.end(), size_t{0});
  if (workload == nullptr || workload->empty() || table.num_rows() == 0) {
    return dims;
  }
  const DataSample sample =
      DataSample::FromTable(table, /*sample_size=*/20'000, /*seed=*/7);
  std::vector<double> sel(num_dims);
  for (size_t d = 0; d < num_dims; ++d) {
    sel[d] = workload->AvgSelectivity(d, sample);
  }
  std::stable_sort(dims.begin(), dims.end(),
                   [&sel](size_t a, size_t b) { return sel[a] < sel[b]; });
  return dims;
}

void StorageBackedIndex::InitStorage(const Table& table,
                                     const std::vector<RowId>* perm,
                                     const BuildContext& ctx) {
  data_ = (perm != nullptr) ? table.Reorder(*perm) : table;
  prefix_sums_.clear();
  if (ctx.workload == nullptr) return;
  std::vector<size_t> agg_dims;
  for (const Query& q : *ctx.workload) {
    if (q.agg().kind != AggSpec::Kind::kSum) continue;
    const size_t dim = q.agg().dim;
    if (std::find(agg_dims.begin(), agg_dims.end(), dim) == agg_dims.end()) {
      agg_dims.push_back(dim);
    }
  }
  for (size_t dim : agg_dims) {
    prefix_sums_.emplace_back(dim, PrefixSums(data_.DecodeColumn(dim)));
  }
}

size_t StorageBackedIndex::PrefixSumsBytes() const {
  size_t bytes = 0;
  for (const auto& [dim, sums] : prefix_sums_) bytes += sums.MemoryUsageBytes();
  return bytes;
}

}  // namespace flood
