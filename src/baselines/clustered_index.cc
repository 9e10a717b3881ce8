#include "baselines/clustered_index.h"

#include "api/index_registry.h"

#include <algorithm>
#include <numeric>

#include "common/timer.h"
#include "learned/search_util.h"
#include "query/scan_util.h"

namespace flood {

Status ClusteredColumnIndex::Build(const Table& table,
                                   const BuildContext& ctx) {
  sort_dim_ = options_.sort_dim;
  if (sort_dim_ == Options::kAutoSelect) {
    sort_dim_ = ctx.DimsBySelectivity(table)[0];
  }
  if (sort_dim_ >= table.num_dims()) {
    return Status::InvalidArgument("sort_dim out of range");
  }

  std::vector<Value> keys = table.DecodeColumn(sort_dim_);
  std::vector<RowId> perm(table.num_rows());
  std::iota(perm.begin(), perm.end(), RowId{0});
  std::stable_sort(perm.begin(), perm.end(), [&keys](RowId a, RowId b) {
    return keys[static_cast<size_t>(a)] < keys[static_cast<size_t>(b)];
  });
  InitStorage(table, &perm, ctx);

  std::sort(keys.begin(), keys.end());
  rmi_ = Rmi::Train(keys, options_.rmi_leaves);
  return Status::OK();
}

template <typename V>
void ClusteredColumnIndex::ExecuteT(const Query& query, V& visitor,
                                    QueryStats* stats) const {
  const Stopwatch total;
  const size_t n = data_.num_rows();
  size_t begin = 0;
  size_t end = n;
  std::vector<size_t> check_dims;

  if (query.num_dims() > sort_dim_ && query.IsFiltered(sort_dim_)) {
    const Stopwatch lookup;
    const ValueRange& r = query.range(sort_dim_);
    const Column& col = data_.column(sort_dim_);
    const auto get = [&col](size_t i) { return col.Get(i); };
    const Rmi::Bounds lo_bounds = rmi_.Lookup(r.lo);
    begin = BinaryLowerBound(get, lo_bounds.lo, lo_bounds.hi, r.lo);
    const Rmi::Bounds hi_bounds = rmi_.Lookup(r.hi);
    end = BinaryUpperBound(get, hi_bounds.lo, hi_bounds.hi, r.hi);
    if (end < begin) end = begin;
    for (size_t d : FilteredDims(query)) {
      if (d != sort_dim_) check_dims.push_back(d);
    }
    if (stats != nullptr) stats->index_ns += lookup.ElapsedNanos();
  } else {
    check_dims = FilteredDims(query);
  }

  const Stopwatch scan;
  // The sort-dimension range is exact by construction; with no other
  // filtered dimension the whole range is check-free.
  ScanRange(data_, query, begin, end, /*exact=*/check_dims.empty(),
            check_dims, visitor, stats);
  if (stats != nullptr) {
    stats->scan_ns += scan.ElapsedNanos();
    stats->total_ns += total.ElapsedNanos();
  }
}

FLOOD_DEFINE_EXECUTE_DISPATCH(ClusteredColumnIndex);

std::vector<std::pair<std::string, double>>
ClusteredColumnIndex::DebugProperties() const {
  return {{"sort_dim", static_cast<double>(sort_dim_)}};
}

std::string ClusteredColumnIndex::Describe() const {
  return "Clustered[sort_dim=" + std::to_string(sort_dim_) + "]";
}

namespace {
const IndexRegistrar kRegistrar(
    "clustered", {},
    [](const IndexOptions& opts)
        -> StatusOr<std::unique_ptr<MultiDimIndex>> {
      ClusteredColumnIndex::Options o;
      const int64_t sort_dim = opts.GetInt("sort_dim", -1);
      if (sort_dim >= 0) o.sort_dim = static_cast<size_t>(sort_dim);
      o.rmi_leaves = static_cast<size_t>(
          opts.GetInt("rmi_leaves", static_cast<int64_t>(o.rmi_leaves)));
      return std::unique_ptr<MultiDimIndex>(new ClusteredColumnIndex(o));
    });
}  // namespace

}  // namespace flood
