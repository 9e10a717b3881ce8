#ifndef FLOOD_QUERY_MULTIDIM_INDEX_H_
#define FLOOD_QUERY_MULTIDIM_INDEX_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "query/query.h"
#include "query/query_stats.h"
#include "query/visitor.h"
#include "query/workload.h"
#include "storage/table.h"

namespace flood {

/// Workload inputs available at index build time. Baselines use it for
/// tuning knobs the paper grants them (dimension ordering by selectivity,
/// etc.); Flood uses it to learn its layout.
struct BuildContext {
  /// Training workload (nullptr = no workload knowledge).
  const Workload* workload = nullptr;

  /// Dimensions of `table` ordered by increasing average workload
  /// selectivity (most selective first), estimated on a 20,000-row sample
  /// (seed 7) drawn here. Natural order without a workload, in which case
  /// no sample is drawn.
  std::vector<size_t> DimsBySelectivity(const Table& table) const;
};

/// Common interface of Flood and every baseline index (§7.2, App. A):
/// clustered multi-dimensional indexes that own a storage-ordered copy of
/// the table and execute conjunctive range queries through a Visitor.
class MultiDimIndex {
 public:
  virtual ~MultiDimIndex() = default;

  virtual std::string_view name() const = 0;

  /// Builds the index over `table`. The index keeps a clustered
  /// (reordered) copy exposed via data().
  virtual Status Build(const Table& table, const BuildContext& ctx) = 0;

  /// Executes `query`, feeding matches into `visitor`. `stats` (optional)
  /// receives per-query counters and phase timings.
  ///
  /// Threading contract: Execute must be const AND re-entrant. One built
  /// index serves concurrent callers (Database::RunBatch shards batches
  /// across a thread pool), so implementations must not mutate shared
  /// state after Build — no lazily-built caches or scratch members without
  /// synchronization; per-query scratch belongs on the stack. `visitor`
  /// and `stats` are caller-owned and never shared across concurrent
  /// Execute calls, so writing through them needs no synchronization.
  virtual void Execute(const Query& query, Visitor& visitor,
                       QueryStats* stats) const = 0;

  /// Index structure size in bytes — excludes the data columns themselves
  /// (Fig. 8's x-axis).
  virtual size_t IndexSizeBytes() const = 0;

  /// The table in index storage order.
  virtual const Table& data() const = 0;

  /// Prefix sums over `dim` in storage order, if maintained (enables O(1)
  /// SUM over exact ranges). Default: none.
  virtual const PrefixSums* prefix_sums(size_t dim) const {
    (void)dim;
    return nullptr;
  }

  /// Named structural counters (leaf counts, tree height, grid cells, ...)
  /// for telemetry and structure tests, keyed by stable snake_case names.
  virtual std::vector<std::pair<std::string, double>> DebugProperties()
      const {
    return {};
  }

  /// One-line human description of the physical layout (e.g. Flood's
  /// learned grid). Defaults to the index name.
  virtual std::string Describe() const { return std::string(name()); }

  /// Machine-readable serialization of the index's learned layout, if it
  /// has one (Flood returns GridLayout::Serialize()). Snapshots persist it
  /// so a restore can pin the layout and skip the optimizer; "" means the
  /// index rebuilds from its options + training workload alone.
  virtual std::string SerializedLayout() const { return std::string(); }
};

/// Convenience base for indexes that own a reordered copy of the table.
/// Handles storage init and the optional cumulative-aggregate (prefix-sum)
/// side columns for dimensions the workload aggregates (§7.1 opt. 2).
class StorageBackedIndex : public MultiDimIndex {
 public:
  const Table& data() const override { return data_; }

  const PrefixSums* prefix_sums(size_t dim) const override {
    for (const auto& [d, sums] : prefix_sums_) {
      if (d == dim) return &sums;
    }
    return nullptr;
  }

 protected:
  /// Stores a clustered copy of `table` permuted by `perm` (pass nullptr to
  /// keep the original order) and builds prefix sums for every dimension
  /// the training workload aggregates with SUM.
  void InitStorage(const Table& table, const std::vector<RowId>* perm,
                   const BuildContext& ctx);

  /// Bytes held by the prefix-sum side columns (reported separately from
  /// IndexSizeBytes, since every index enjoys them equally).
  size_t PrefixSumsBytes() const;

  Table data_;
  std::vector<std::pair<size_t, PrefixSums>> prefix_sums_;
};

/// Defines the virtual Execute() as a devirtualizing dispatch onto the
/// class's ExecuteT<V> member template and pins its three instantiations.
/// Place in the index's .cc after the ExecuteT definition.
#define FLOOD_DEFINE_EXECUTE_DISPATCH(ClassName)                            \
  void ClassName::Execute(const Query& query, Visitor& visitor,            \
                          QueryStats* stats) const {                       \
    switch (visitor.kind()) {                                              \
      case Visitor::Kind::kCount:                                          \
        ExecuteT(query, static_cast<CountVisitor&>(visitor), stats);       \
        break;                                                             \
      case Visitor::Kind::kSum:                                            \
        ExecuteT(query, static_cast<SumVisitor&>(visitor), stats);         \
        break;                                                             \
      case Visitor::Kind::kCollect:                                        \
        ExecuteT(query, static_cast<CollectVisitor&>(visitor), stats);     \
        break;                                                             \
    }                                                                      \
  }                                                                        \
  template void ClassName::ExecuteT<CountVisitor>(const Query&,            \
                                                  CountVisitor&,           \
                                                  QueryStats*) const;      \
  template void ClassName::ExecuteT<SumVisitor>(const Query&, SumVisitor&, \
                                                QueryStats*) const;        \
  template void ClassName::ExecuteT<CollectVisitor>(                       \
      const Query&, CollectVisitor&, QueryStats*) const

}  // namespace flood

#endif  // FLOOD_QUERY_MULTIDIM_INDEX_H_
