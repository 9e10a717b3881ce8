#include "baselines/hyperoctree.h"

#include "api/index_registry.h"

#include <algorithm>
#include <numeric>

#include "common/timer.h"
#include "query/scan_util.h"

namespace flood {

Status HyperoctreeIndex::Build(const Table& table, const BuildContext& ctx) {
  const size_t n = table.num_rows();
  const size_t d = table.num_dims();
  if (n == 0) return Status::InvalidArgument("empty table");
  if (d > 31) {
    return Status::InvalidArgument("hyperoctree supports at most 31 dims");
  }

  std::vector<std::vector<Value>> cols(d);
  for (size_t dim = 0; dim < d; ++dim) cols[dim] = table.DecodeColumn(dim);

  root_lo_.resize(d);
  root_hi_.resize(d);
  for (size_t dim = 0; dim < d; ++dim) {
    root_lo_[dim] = table.min_value(dim);
    root_hi_[dim] = table.max_value(dim);
  }

  std::vector<RowId> rows(n);
  std::iota(rows.begin(), rows.end(), RowId{0});
  std::vector<RowId> layout;
  layout.reserve(n);
  std::vector<Value> box_lo = root_lo_;
  std::vector<Value> box_hi = root_hi_;
  nodes_.clear();
  leaves_.clear();
  BuildNode(cols, rows, 0, n, box_lo, box_hi, 0, layout);

  InitStorage(table, &layout, ctx);
  return Status::OK();
}

uint32_t HyperoctreeIndex::BuildNode(
    const std::vector<std::vector<Value>>& cols, std::vector<RowId>& rows,
    size_t begin, size_t end, std::vector<Value>& box_lo,
    std::vector<Value>& box_hi, int depth, std::vector<RowId>& layout) {
  const size_t d = cols.size();
  const uint32_t node_id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(Node{});

  // A box that can no longer split (single point in every dim) must become
  // a leaf regardless of page size.
  bool splittable = false;
  for (size_t dim = 0; dim < d && !splittable; ++dim) {
    splittable = box_lo[dim] < box_hi[dim];
  }

  if (end - begin <= options_.page_size || depth >= options_.max_depth ||
      !splittable) {
    Leaf leaf;
    leaf.begin = layout.size();
    leaf.min.assign(d, kValueMax);
    leaf.max.assign(d, kValueMin);
    for (size_t i = begin; i < end; ++i) {
      const RowId r = rows[i];
      layout.push_back(r);
      for (size_t dim = 0; dim < d; ++dim) {
        const Value v = cols[dim][static_cast<size_t>(r)];
        leaf.min[dim] = std::min(leaf.min[dim], v);
        leaf.max[dim] = std::max(leaf.max[dim], v);
      }
    }
    leaf.end = layout.size();
    nodes_[node_id].is_leaf = true;
    nodes_[node_id].leaf_id = static_cast<uint32_t>(leaves_.size());
    leaves_.push_back(std::move(leaf));
    return node_id;
  }

  // Octant code per row: bit `dim` set iff value > midpoint of `dim`.
  std::vector<Value> mid(d);
  for (size_t dim = 0; dim < d; ++dim) {
    // Overflow-safe midpoint (rounds towards box_lo).
    mid[dim] = std::midpoint(box_lo[dim], box_hi[dim]);
  }
  auto octant_of = [&](RowId r) {
    uint32_t code = 0;
    for (size_t dim = 0; dim < d; ++dim) {
      if (cols[dim][static_cast<size_t>(r)] > mid[dim]) {
        code |= uint32_t{1} << dim;
      }
    }
    return code;
  };

  // Sort the span by octant code (counting via sort keeps it simple; spans
  // shrink geometrically).
  std::sort(rows.begin() + static_cast<std::ptrdiff_t>(begin),
            rows.begin() + static_cast<std::ptrdiff_t>(end),
            [&octant_of](RowId a, RowId b) {
              return octant_of(a) < octant_of(b);
            });

  size_t span_begin = begin;
  while (span_begin < end) {
    const uint32_t code = octant_of(rows[span_begin]);
    size_t span_end = span_begin;
    while (span_end < end && octant_of(rows[span_end]) == code) ++span_end;

    // Child box from the code.
    std::vector<Value> child_lo(d);
    std::vector<Value> child_hi(d);
    for (size_t dim = 0; dim < d; ++dim) {
      if (code & (uint32_t{1} << dim)) {
        child_lo[dim] = mid[dim] + 1;
        child_hi[dim] = box_hi[dim];
      } else {
        child_lo[dim] = box_lo[dim];
        child_hi[dim] = mid[dim];
      }
    }
    const uint32_t child = BuildNode(cols, rows, span_begin, span_end,
                                     child_lo, child_hi, depth + 1, layout);
    nodes_[node_id].children.emplace_back(code, child);
    span_begin = span_end;
  }
  return node_id;
}

template <typename V>
void HyperoctreeIndex::ExecuteT(const Query& query, V& visitor,
                                QueryStats* stats) const {
  const Stopwatch total;
  const std::vector<size_t> check_dims = FilteredDims(query);
  const size_t d = data_.num_dims();

  // Iterative traversal collecting intersecting leaves (index phase).
  const Stopwatch index_time;
  std::vector<std::pair<uint32_t, bool>> leaf_hits;  // (leaf id, contained)
  struct Frame {
    uint32_t node;
    std::vector<Value> lo;
    std::vector<Value> hi;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{0, root_lo_, root_hi_});
  while (!stack.empty()) {
    Frame f = std::move(stack.back());
    stack.pop_back();
    const Node& node = nodes_[f.node];
    if (stats != nullptr) ++stats->cells_visited;
    if (node.is_leaf) {
      const Leaf& leaf = leaves_[node.leaf_id];
      bool intersects = true;
      bool contained = true;
      for (size_t dim : check_dims) {
        const ValueRange& r = query.range(dim);
        if (leaf.max[dim] < r.lo || leaf.min[dim] > r.hi) {
          intersects = false;
          break;
        }
        contained =
            contained && r.lo <= leaf.min[dim] && leaf.max[dim] <= r.hi;
      }
      if (intersects) {
        leaf_hits.emplace_back(node.leaf_id, contained);
      }
      continue;
    }
    std::vector<Value> mid(d);
    for (size_t dim = 0; dim < d; ++dim) {
      mid[dim] = std::midpoint(f.lo[dim], f.hi[dim]);
    }
    for (const auto& [code, child] : node.children) {
      bool intersects = true;
      Frame cf;
      cf.node = child;
      cf.lo.resize(d);
      cf.hi.resize(d);
      for (size_t dim = 0; dim < d; ++dim) {
        if (code & (uint32_t{1} << dim)) {
          cf.lo[dim] = mid[dim] + 1;
          cf.hi[dim] = f.hi[dim];
        } else {
          cf.lo[dim] = f.lo[dim];
          cf.hi[dim] = mid[dim];
        }
      }
      for (size_t dim : check_dims) {
        const ValueRange& r = query.range(dim);
        if (cf.hi[dim] < r.lo || cf.lo[dim] > r.hi) {
          intersects = false;
          break;
        }
      }
      if (intersects) stack.push_back(std::move(cf));
    }
  }
  // Scan leaves in physical order for locality.
  std::sort(leaf_hits.begin(), leaf_hits.end());
  if (stats != nullptr) stats->index_ns += index_time.ElapsedNanos();

  const Stopwatch scan;
  for (const auto& [leaf_id, contained] : leaf_hits) {
    const Leaf& leaf = leaves_[leaf_id];
    ScanRange(data_, query, leaf.begin, leaf.end, contained, check_dims,
              visitor, stats);
  }
  if (stats != nullptr) {
    stats->scan_ns += scan.ElapsedNanos();
    stats->total_ns += total.ElapsedNanos();
  }
}

size_t HyperoctreeIndex::IndexSizeBytes() const {
  size_t bytes = nodes_.size() * sizeof(Node);
  for (const auto& node : nodes_) {
    bytes += node.children.size() * sizeof(std::pair<uint32_t, uint32_t>);
  }
  bytes += leaves_.size() * sizeof(Leaf);
  for (const auto& leaf : leaves_) {
    bytes += (leaf.min.size() + leaf.max.size()) * sizeof(Value);
  }
  return bytes;
}

FLOOD_DEFINE_EXECUTE_DISPATCH(HyperoctreeIndex);

namespace {
const IndexRegistrar kRegistrar(
    "octree", {"hyperoctree"},
    [](const IndexOptions& opts)
        -> StatusOr<std::unique_ptr<MultiDimIndex>> {
      HyperoctreeIndex::Options o;
      o.page_size = static_cast<size_t>(
          opts.GetInt("page_size", static_cast<int64_t>(o.page_size)));
      o.max_depth = static_cast<int>(opts.GetInt("max_depth", o.max_depth));
      return std::unique_ptr<MultiDimIndex>(new HyperoctreeIndex(o));
    });
}  // namespace

}  // namespace flood
