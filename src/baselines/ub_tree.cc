#include "baselines/ub_tree.h"

#include "api/index_registry.h"

#include <algorithm>
#include <numeric>

#include "common/timer.h"
#include "query/scan_util.h"

namespace flood {

Status UbTreeIndex::Build(const Table& table, const BuildContext& ctx) {
  const size_t n = table.num_rows();
  const size_t d = table.num_dims();
  if (n == 0) return Status::InvalidArgument("empty table");

  mapper_ =
      std::make_unique<ZOrderMapper>(table, ctx.DimsBySelectivity(table));

  std::vector<uint64_t> z(n);
  {
    std::vector<std::vector<Value>> cols(d);
    for (size_t i = 0; i < d; ++i) {
      cols[i] = table.DecodeColumn(mapper_->dim_order()[i]);
    }
    std::vector<Value> row(d);
    for (size_t r = 0; r < n; ++r) {
      for (size_t i = 0; i < d; ++i) row[i] = cols[i][r];
      z[r] = mapper_->EncodeValues(row.data());
    }
  }
  std::vector<RowId> perm(n);
  std::iota(perm.begin(), perm.end(), RowId{0});
  std::stable_sort(perm.begin(), perm.end(), [&z](RowId a, RowId b) {
    return z[static_cast<size_t>(a)] < z[static_cast<size_t>(b)];
  });
  InitStorage(table, &perm, ctx);

  z_.resize(n);
  for (size_t i = 0; i < n; ++i) z_[i] = z[static_cast<size_t>(perm[i])];
  return Status::OK();
}

std::pair<uint64_t, uint64_t> UbTreeIndex::QueryCorners(
    const Query& query) const {
  const size_t d = mapper_->curve().num_dims();
  uint32_t lo[64];
  uint32_t hi[64];
  for (size_t i = 0; i < d; ++i) {
    const size_t table_dim = mapper_->dim_order()[i];
    if (table_dim < query.num_dims() && query.IsFiltered(table_dim)) {
      lo[i] = mapper_->ToCoord(i, query.range(table_dim).lo);
      hi[i] = mapper_->ToCoord(i, query.range(table_dim).hi);
    } else {
      lo[i] = 0;
      hi[i] = mapper_->ToCoord(i, kValueMax);
    }
  }
  return {mapper_->curve().Encode(lo), mapper_->curve().Encode(hi)};
}

template <typename V>
void UbTreeIndex::ExecuteT(const Query& query, V& visitor,
                           QueryStats* stats) const {
  const Stopwatch total;
  const Stopwatch index_time;
  const auto [zmin, zmax] = QueryCorners(query);
  const ZOrderCurve& curve = mapper_->curve();

  size_t idx = static_cast<size_t>(
      std::lower_bound(z_.begin(), z_.end(), zmin) - z_.begin());
  const size_t end_idx = static_cast<size_t>(
      std::upper_bound(z_.begin(), z_.end(), zmax) - z_.begin());
  const std::vector<size_t> check_dims = FilteredDims(query);
  if (stats != nullptr) stats->index_ns += index_time.ElapsedNanos();

  const Stopwatch scan;
  while (idx < end_idx) {
    if (curve.InBox(z_[idx], zmin, zmax)) {
      // Consume the in-box run. The Z-coordinates are coarsened raw values
      // (shifted), so per-value filter checks still apply.
      size_t run_end = idx + 1;
      while (run_end < end_idx && curve.InBox(z_[run_end], zmin, zmax)) {
        ++run_end;
      }
      if (stats != nullptr) ++stats->cells_visited;
      ScanRange(data_, query, idx, run_end, /*exact=*/false, check_dims,
                visitor, stats);
      idx = run_end;
    } else {
      // Skip ahead to the next Z-value inside the box ("getNextZ").
      const std::optional<uint64_t> next =
          curve.NextInBox(z_[idx], zmin, zmax);
      if (!next.has_value()) break;
      FLOOD_DCHECK(*next > z_[idx]);
      idx = static_cast<size_t>(
          std::lower_bound(z_.begin() + static_cast<std::ptrdiff_t>(idx),
                           z_.begin() + static_cast<std::ptrdiff_t>(end_idx),
                           *next) -
          z_.begin());
    }
  }
  if (stats != nullptr) {
    stats->scan_ns += scan.ElapsedNanos();
    stats->total_ns += total.ElapsedNanos();
  }
}

FLOOD_DEFINE_EXECUTE_DISPATCH(UbTreeIndex);

namespace {
const IndexRegistrar kRegistrar(
    "ubtree", {},
    [](const IndexOptions& opts)
        -> StatusOr<std::unique_ptr<MultiDimIndex>> {
      UbTreeIndex::Options o;
      o.page_size = static_cast<size_t>(
          opts.GetInt("page_size", static_cast<int64_t>(o.page_size)));
      return std::unique_ptr<MultiDimIndex>(new UbTreeIndex(o));
    });
}  // namespace

}  // namespace flood
