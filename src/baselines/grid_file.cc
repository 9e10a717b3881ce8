#include "baselines/grid_file.h"

#include "api/index_registry.h"

#include <algorithm>
#include <numeric>

#include "common/timer.h"
#include "query/scan_util.h"

namespace flood {

namespace {

/// Build-time bucket state.
struct BuildBucket {
  std::vector<RowId> points;
  std::vector<size_t> lo;  ///< Region in block coords, inclusive.
  std::vector<size_t> hi;
  bool unsplittable = false;
};

}  // namespace

size_t GridFileIndex::BlockOf(size_t dim, Value v) const {
  const auto& s = scales_[dim];
  return static_cast<size_t>(std::upper_bound(s.begin(), s.end(), v) -
                             s.begin());
}

Status GridFileIndex::Build(const Table& table, const BuildContext& ctx) {
  const size_t n = table.num_rows();
  const size_t d = table.num_dims();
  if (n == 0) return Status::InvalidArgument("empty table");

  std::vector<std::vector<Value>> cols(d);
  for (size_t dim = 0; dim < d; ++dim) cols[dim] = table.DecodeColumn(dim);
  std::vector<Value> dim_min(d);
  std::vector<Value> dim_max(d);
  for (size_t dim = 0; dim < d; ++dim) {
    dim_min[dim] = table.min_value(dim);
    dim_max[dim] = table.max_value(dim);
  }

  scales_.assign(d, {});
  std::vector<size_t> nb(d, 1);  // Blocks per dimension.
  std::vector<uint32_t> dir(1, 0);
  std::vector<BuildBucket> buckets(1);
  buckets[0].lo.assign(d, 0);
  buckets[0].hi.assign(d, 0);
  size_t round_robin = 0;

  auto dir_index = [&](const std::vector<size_t>& coords) {
    size_t idx = 0;
    for (size_t dim = 0; dim < d; ++dim) idx = idx * nb[dim] + coords[dim];
    return idx;
  };

  // Value interval of block `k` along `dim` (inclusive bounds).
  auto block_interval = [&](size_t dim, size_t k) -> std::pair<Value, Value> {
    const auto& s = scales_[dim];
    const Value lo = (k == 0) ? dim_min[dim] : s[k - 1];
    const Value hi = (k == s.size()) ? dim_max[dim] : s[k] - 1;
    return {lo, hi};
  };

  // Inserts a new scale entry (split value) in `dim`; rebuilds the
  // directory and shifts bucket regions. Returns false on budget overflow.
  auto add_scale = [&](size_t dim, Value split_value) -> bool {
    const auto& s = scales_[dim];
    const size_t pos = static_cast<size_t>(
        std::upper_bound(s.begin(), s.end(), split_value) - s.begin());
    const size_t new_size = dir.size() / nb[dim] * (nb[dim] + 1);
    if (new_size > options_.max_directory_entries) return false;

    std::vector<uint32_t> new_dir(new_size);
    std::vector<size_t> old_nb = nb;
    nb[dim] += 1;
    // Enumerate new coords with an odometer; map to old block coords.
    std::vector<size_t> coords(d, 0);
    for (size_t idx = 0; idx < new_dir.size(); ++idx) {
      std::vector<size_t> old_coords = coords;
      if (old_coords[dim] > pos) old_coords[dim] -= 1;
      size_t old_idx = 0;
      for (size_t k = 0; k < d; ++k) {
        old_idx = old_idx * old_nb[k] + old_coords[k];
      }
      new_dir[idx] = dir[old_idx];
      // Odometer increment (last dim fastest).
      for (size_t k = d; k-- > 0;) {
        if (++coords[k] < nb[k]) break;
        coords[k] = 0;
      }
    }
    dir = std::move(new_dir);
    scales_[dim].insert(scales_[dim].begin() + static_cast<std::ptrdiff_t>(pos),
                        split_value);
    for (auto& b : buckets) {
      if (b.lo[dim] > pos) b.lo[dim] += 1;
      if (b.hi[dim] >= pos) b.hi[dim] += 1;
      b.unsplittable = false;  // New boundary may make it splittable.
    }
    return true;
  };

  std::vector<size_t> coords(d);
  auto coords_of_row = [&](RowId r, std::vector<size_t>& out) {
    for (size_t dim = 0; dim < d; ++dim) {
      out[dim] = BlockOf(dim, cols[dim][static_cast<size_t>(r)]);
    }
  };

  // Splits bucket `b` along an existing boundary if its region spans more
  // than one block in some dimension. Returns true on success.
  auto split_on_boundary = [&](uint32_t b) -> bool {
    BuildBucket& bucket = buckets[static_cast<size_t>(b)];
    size_t best_dim = d;
    size_t best_span = 1;
    for (size_t dim = 0; dim < d; ++dim) {
      const size_t span = bucket.hi[dim] - bucket.lo[dim] + 1;
      if (span > best_span) {
        best_span = span;
        best_dim = dim;
      }
    }
    if (best_dim == d) return false;
    const size_t cut =
        bucket.lo[best_dim] + (bucket.hi[best_dim] - bucket.lo[best_dim] + 1) / 2;

    const uint32_t nb_id = static_cast<uint32_t>(buckets.size());
    buckets.push_back(BuildBucket{});
    BuildBucket& fresh = buckets.back();
    BuildBucket& old = buckets[static_cast<size_t>(b)];
    fresh.lo = old.lo;
    fresh.hi = old.hi;
    fresh.lo[best_dim] = cut;
    old.hi[best_dim] = cut - 1;

    // Re-point directory entries in the new bucket's region.
    std::vector<size_t> c = fresh.lo;
    while (true) {
      dir[dir_index(c)] = nb_id;
      size_t k = d;
      bool done = true;
      while (k-- > 0) {
        if (++c[k] <= fresh.hi[k]) {
          done = false;
          break;
        }
        c[k] = fresh.lo[k];
      }
      if (done) break;
    }
    // Redistribute points.
    std::vector<RowId> keep;
    keep.reserve(old.points.size());
    std::vector<size_t> pc(d);
    for (RowId r : old.points) {
      pc[best_dim] = BlockOf(best_dim, cols[best_dim][static_cast<size_t>(r)]);
      if (pc[best_dim] >= cut) {
        fresh.points.push_back(r);
      } else {
        keep.push_back(r);
      }
    }
    old.points = std::move(keep);
    return true;
  };

  bool budget_hit = false;
  for (RowId r = 0; r < n && !budget_hit; ++r) {
    coords_of_row(r, coords);
    uint32_t b = dir[dir_index(coords)];
    buckets[static_cast<size_t>(b)].points.push_back(r);

    // Split until the receiving bucket satisfies the page size.
    while (buckets[static_cast<size_t>(b)].points.size() >
               options_.page_size &&
           !buckets[static_cast<size_t>(b)].unsplittable) {
      if (!split_on_boundary(b)) {
        // Single-block bucket: introduce a new split point, cycling dims.
        bool added = false;
        for (size_t attempt = 0; attempt < d; ++attempt) {
          const size_t dim = (round_robin + attempt) % d;
          const size_t block = buckets[static_cast<size_t>(b)].lo[dim];
          const auto [lo_v, hi_v] = block_interval(dim, block);
          if (lo_v >= hi_v) continue;  // Single value: cannot split.
          const Value mid = std::midpoint(lo_v, hi_v);
          if (!add_scale(dim, mid + 1)) {
            budget_hit = true;
            break;
          }
          round_robin = (dim + 1) % d;
          added = true;
          break;
        }
        if (budget_hit) break;
        if (!added) {
          buckets[static_cast<size_t>(b)].unsplittable = true;
          break;
        }
      }
      // After any split, the overfull points may now live in a new bucket;
      // re-locate the bucket owning the just-inserted row.
      coords_of_row(r, coords);
      b = dir[dir_index(coords)];
    }
  }
  if (budget_hit) {
    return Status::FailedPrecondition(
        "grid file directory exceeded budget (skewed data); paper reports "
        "N/A for such configurations");
  }

  // Finalize: physical layout bucket-by-bucket.
  std::vector<RowId> layout;
  layout.reserve(n);
  bucket_range_.clear();
  bucket_bounds_.clear();
  bucket_range_.reserve(buckets.size());
  bucket_bounds_.assign(buckets.size() * d * 2, 0);
  for (size_t b = 0; b < buckets.size(); ++b) {
    const size_t begin = layout.size();
    std::vector<Value> mn(d, kValueMax);
    std::vector<Value> mx(d, kValueMin);
    for (RowId r : buckets[b].points) {
      layout.push_back(r);
      for (size_t dim = 0; dim < d; ++dim) {
        const Value v = cols[dim][static_cast<size_t>(r)];
        mn[dim] = std::min(mn[dim], v);
        mx[dim] = std::max(mx[dim], v);
      }
    }
    bucket_range_.emplace_back(begin, layout.size());
    for (size_t dim = 0; dim < d; ++dim) {
      bucket_bounds_[(b * d + dim) * 2] = mn[dim];
      bucket_bounds_[(b * d + dim) * 2 + 1] = mx[dim];
    }
  }
  // Remap directory to final bucket ids (identical ids; directory already
  // points at build buckets which we kept in order).
  dir_stride_.assign(d, 1);
  for (size_t dim = d - 1; dim-- > 0;) {
    dir_stride_[dim] = dir_stride_[dim + 1] * nb[dim + 1];
  }
  directory_ = std::move(dir);

  InitStorage(table, &layout, ctx);
  return Status::OK();
}

template <typename V>
void GridFileIndex::ExecuteT(const Query& query, V& visitor,
                             QueryStats* stats) const {
  const Stopwatch total;
  const std::vector<size_t> check_dims = FilteredDims(query);
  const size_t d = data_.num_dims();

  const Stopwatch index_time;
  std::vector<size_t> lo(d, 0);
  std::vector<size_t> hi(d);
  for (size_t dim = 0; dim < d; ++dim) {
    hi[dim] = scales_[dim].size();  // Last block index.
    if (dim < query.num_dims() && query.IsFiltered(dim)) {
      lo[dim] = BlockOf(dim, query.range(dim).lo);
      hi[dim] = BlockOf(dim, query.range(dim).hi);
    }
  }

  // Walk the block hyper-rectangle, dedup bucket ids.
  std::vector<uint8_t> seen(bucket_range_.size(), 0);
  std::vector<uint32_t> hit_buckets;
  std::vector<size_t> c = lo;
  while (true) {
    size_t idx = 0;
    for (size_t dim = 0; dim < d; ++dim) {
      idx += c[dim] * dir_stride_[dim];
    }
    const uint32_t b = directory_[idx];
    if (!seen[b]) {
      seen[b] = 1;
      hit_buckets.push_back(b);
    }
    size_t k = d;
    bool done = true;
    while (k-- > 0) {
      if (++c[k] <= hi[k]) {
        done = false;
        break;
      }
      c[k] = lo[k];
    }
    if (done) break;
  }
  std::sort(hit_buckets.begin(), hit_buckets.end());
  if (stats != nullptr) {
    stats->index_ns += index_time.ElapsedNanos();
    stats->cells_visited += hit_buckets.size();
  }

  const Stopwatch scan;
  for (uint32_t b : hit_buckets) {
    bool intersects = true;
    bool contained = true;
    for (size_t dim : check_dims) {
      const Value mn = bucket_bounds_[(b * d + dim) * 2];
      const Value mx = bucket_bounds_[(b * d + dim) * 2 + 1];
      const ValueRange& r = query.range(dim);
      if (mx < r.lo || mn > r.hi) {
        intersects = false;
        break;
      }
      contained = contained && r.lo <= mn && mx <= r.hi;
    }
    if (!intersects) continue;
    const auto [begin, end] = bucket_range_[b];
    ScanRange(data_, query, begin, end, contained, check_dims, visitor,
              stats);
  }
  if (stats != nullptr) {
    stats->scan_ns += scan.ElapsedNanos();
    stats->total_ns += total.ElapsedNanos();
  }
}

size_t GridFileIndex::IndexSizeBytes() const {
  size_t bytes = directory_.size() * sizeof(uint32_t) +
                 bucket_range_.size() * sizeof(std::pair<size_t, size_t>) +
                 bucket_bounds_.size() * sizeof(Value);
  for (const auto& s : scales_) bytes += s.size() * sizeof(Value);
  return bytes;
}

FLOOD_DEFINE_EXECUTE_DISPATCH(GridFileIndex);

namespace {
const IndexRegistrar kRegistrar(
    "grid_file", {},
    [](const IndexOptions& opts)
        -> StatusOr<std::unique_ptr<MultiDimIndex>> {
      GridFileIndex::Options o;
      o.page_size = static_cast<size_t>(
          opts.GetInt("page_size", static_cast<int64_t>(o.page_size)));
      o.max_directory_entries = static_cast<size_t>(opts.GetInt(
          "max_directory_entries",
          static_cast<int64_t>(o.max_directory_entries)));
      return std::unique_ptr<MultiDimIndex>(new GridFileIndex(o));
    });
}  // namespace

}  // namespace flood
