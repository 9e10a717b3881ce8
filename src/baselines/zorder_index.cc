#include "baselines/zorder_index.h"

#include "api/index_registry.h"

#include <algorithm>
#include <numeric>

#include "common/timer.h"
#include "query/scan_util.h"

namespace flood {

Status ZOrderIndex::Build(const Table& table, const BuildContext& ctx) {
  const size_t n = table.num_rows();
  const size_t d = table.num_dims();
  if (n == 0) return Status::InvalidArgument("empty table");

  mapper_ =
      std::make_unique<ZOrderMapper>(table, ctx.DimsBySelectivity(table));

  // Z-code per row, then sort rows by code.
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

  // Page metadata over the sorted order.
  const size_t page = std::max<size_t>(1, options_.page_size);
  const size_t num_pages = (n + page - 1) / page;
  page_min_z_.resize(num_pages);
  page_begin_.resize(num_pages + 1);
  page_bounds_.assign(num_pages * d * 2, 0);
  for (size_t p = 0; p < num_pages; ++p) {
    const size_t begin = p * page;
    const size_t end = std::min(n, begin + page);
    page_begin_[p] = begin;
    page_min_z_[p] = z[static_cast<size_t>(perm[begin])];
    for (size_t dim = 0; dim < d; ++dim) {
      Value mn = kValueMax;
      Value mx = kValueMin;
      data_.column(dim).ForEach(begin, end, [&](size_t, Value v) {
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      });
      page_bounds_[(p * d + dim) * 2] = mn;
      page_bounds_[(p * d + dim) * 2 + 1] = mx;
    }
  }
  page_begin_[num_pages] = n;
  return Status::OK();
}

std::pair<uint64_t, uint64_t> ZOrderIndex::QueryCorners(
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
void ZOrderIndex::ExecuteT(const Query& query, V& visitor,
                           QueryStats* stats) const {
  const Stopwatch total;
  const Stopwatch index_time;
  const auto [zmin, zmax] = QueryCorners(query);

  // Pages whose z span intersects [zmin, zmax]. The page before the first
  // page-minimum >= zmin can still hold zmin (duplicate codes straddle page
  // boundaries), so step back one page from the lower bound.
  const auto first_it = std::lower_bound(page_min_z_.begin(),
                                         page_min_z_.end(), zmin);
  size_t p = static_cast<size_t>(first_it - page_min_z_.begin());
  if (p > 0) --p;
  const std::vector<size_t> check_dims = FilteredDims(query);
  const size_t d = data_.num_dims();
  if (stats != nullptr) stats->index_ns += index_time.ElapsedNanos();

  const Stopwatch scan;
  for (; p < page_min_z_.size() && page_min_z_[p] <= zmax; ++p) {
    if (stats != nullptr) ++stats->cells_visited;
    // Page-level min/max pruning.
    bool intersects = true;
    bool contained = true;
    for (size_t dim : check_dims) {
      const Value mn = page_bounds_[(p * d + dim) * 2];
      const Value mx = page_bounds_[(p * d + dim) * 2 + 1];
      const ValueRange& r = query.range(dim);
      if (mx < r.lo || mn > r.hi) {
        intersects = false;
        break;
      }
      contained = contained && r.lo <= mn && mx <= r.hi;
    }
    if (!intersects) continue;
    ScanRange(data_, query, page_begin_[p], page_begin_[p + 1],
              /*exact=*/contained, check_dims, visitor, stats);
  }
  if (stats != nullptr) {
    stats->scan_ns += scan.ElapsedNanos();
    stats->total_ns += total.ElapsedNanos();
  }
}

size_t ZOrderIndex::IndexSizeBytes() const {
  return page_min_z_.size() * sizeof(uint64_t) +
         page_begin_.size() * sizeof(size_t) +
         page_bounds_.size() * sizeof(Value) + sizeof(ZOrderMapper);
}

FLOOD_DEFINE_EXECUTE_DISPATCH(ZOrderIndex);

std::vector<std::pair<std::string, double>> ZOrderIndex::DebugProperties()
    const {
  return {{"num_pages", static_cast<double>(page_min_z_.size())}};
}

namespace {
const IndexRegistrar kRegistrar(
    "zorder", {},
    [](const IndexOptions& opts)
        -> StatusOr<std::unique_ptr<MultiDimIndex>> {
      ZOrderIndex::Options o;
      o.page_size = static_cast<size_t>(
          opts.GetInt("page_size", static_cast<int64_t>(o.page_size)));
      return std::unique_ptr<MultiDimIndex>(new ZOrderIndex(o));
    });
}  // namespace

}  // namespace flood
