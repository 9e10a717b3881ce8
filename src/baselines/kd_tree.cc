#include "baselines/kd_tree.h"

#include "api/index_registry.h"

#include <algorithm>
#include <numeric>

#include "common/timer.h"
#include "query/scan_util.h"

namespace flood {

Status KdTreeIndex::Build(const Table& table, const BuildContext& ctx) {
  const size_t n = table.num_rows();
  const size_t d = table.num_dims();
  if (n == 0) return Status::InvalidArgument("empty table");

  dim_order_ = ctx.DimsBySelectivity(table);
  std::vector<std::vector<Value>> cols(d);
  for (size_t dim = 0; dim < d; ++dim) cols[dim] = table.DecodeColumn(dim);

  std::vector<RowId> rows(n);
  std::iota(rows.begin(), rows.end(), RowId{0});
  std::vector<RowId> layout;
  layout.reserve(n);
  nodes_.clear();
  leaves_.clear();
  BuildNode(cols, rows, 0, n, 0, 0, layout);

  InitStorage(table, &layout, ctx);
  return Status::OK();
}

uint32_t KdTreeIndex::BuildNode(const std::vector<std::vector<Value>>& cols,
                                std::vector<RowId>& rows, size_t begin,
                                size_t end, size_t order_pos,
                                int dims_exhausted,
                                std::vector<RowId>& layout) {
  const size_t d = cols.size();
  const uint32_t node_id = static_cast<uint32_t>(nodes_.size());
  nodes_.push_back(Node{});

  // Leaf if small enough or every dimension in the cycle is constant.
  if (end - begin <= options_.page_size ||
      dims_exhausted >= static_cast<int>(d)) {
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
    nodes_[node_id].split_dim = -1;
    nodes_[node_id].leaf_id = static_cast<uint32_t>(leaves_.size());
    leaves_.push_back(std::move(leaf));
    return node_id;
  }

  const size_t dim = dim_order_[order_pos % d];
  const size_t next_pos = order_pos + 1;

  // Median split value of `dim` in this span.
  const size_t mid_rank = begin + (end - begin) / 2;
  std::nth_element(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(mid_rank),
      rows.begin() + static_cast<std::ptrdiff_t>(end),
      [&cols, dim](RowId a, RowId b) {
        return cols[dim][static_cast<size_t>(a)] <
               cols[dim][static_cast<size_t>(b)];
      });
  const Value split = cols[dim][static_cast<size_t>(rows[mid_rank])];

  // Partition strictly-less to the left; if everything collapses to one
  // side the dimension has (effectively) one value here — skip it (App. A).
  const auto mid_it = std::partition(
      rows.begin() + static_cast<std::ptrdiff_t>(begin),
      rows.begin() + static_cast<std::ptrdiff_t>(end),
      [&cols, dim, split](RowId r) {
        return cols[dim][static_cast<size_t>(r)] < split;
      });
  const size_t mid = static_cast<size_t>(mid_it - rows.begin());
  if (mid == begin || mid == end) {
    // All values >= split (or < split): constant or near-constant dim.
    nodes_.pop_back();
    return BuildNode(cols, rows, begin, end, next_pos, dims_exhausted + 1,
                     layout);
  }

  nodes_[node_id].split_dim = static_cast<int32_t>(dim);
  nodes_[node_id].split_value = split;
  const uint32_t left =
      BuildNode(cols, rows, begin, mid, next_pos, 0, layout);
  const uint32_t right =
      BuildNode(cols, rows, mid, end, next_pos, 0, layout);
  nodes_[node_id].left = left;
  nodes_[node_id].right = right;
  return node_id;
}

template <typename V>
void KdTreeIndex::ExecuteT(const Query& query, V& visitor,
                           QueryStats* stats) const {
  const Stopwatch total;
  const std::vector<size_t> check_dims = FilteredDims(query);

  const Stopwatch index_time;
  std::vector<std::pair<uint32_t, bool>> leaf_hits;  // (leaf id, contained)
  std::vector<uint32_t> stack;
  stack.push_back(0);
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    if (stats != nullptr) ++stats->cells_visited;
    if (node.split_dim < 0) {
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
      if (intersects) leaf_hits.emplace_back(node.leaf_id, contained);
      continue;
    }
    const size_t dim = static_cast<size_t>(node.split_dim);
    const ValueRange& r = query.range(dim);
    // Left subtree: values < split; right: values >= split.
    if (r.lo < node.split_value) stack.push_back(node.left);
    if (r.hi >= node.split_value) stack.push_back(node.right);
  }
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

size_t KdTreeIndex::IndexSizeBytes() const {
  size_t bytes = nodes_.size() * sizeof(Node) + leaves_.size() * sizeof(Leaf);
  for (const auto& leaf : leaves_) {
    bytes += (leaf.min.size() + leaf.max.size()) * sizeof(Value);
  }
  return bytes;
}

FLOOD_DEFINE_EXECUTE_DISPATCH(KdTreeIndex);

namespace {
const IndexRegistrar kRegistrar(
    "kdtree", {},
    [](const IndexOptions& opts)
        -> StatusOr<std::unique_ptr<MultiDimIndex>> {
      KdTreeIndex::Options o;
      o.page_size = static_cast<size_t>(
          opts.GetInt("page_size", static_cast<int64_t>(o.page_size)));
      return std::unique_ptr<MultiDimIndex>(new KdTreeIndex(o));
    });
}  // namespace

}  // namespace flood
