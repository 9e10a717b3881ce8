#ifndef FLOOD_API_SHARDED_DATABASE_H_
#define FLOOD_API_SHARDED_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/shard_map.h"

namespace flood {

/// How ShardedDatabase::Open partitions and opens its shards.
struct ShardedDatabaseOptions {
  /// Requested shard count. Duplicate-heavy sort dimensions may yield
  /// fewer (a value is never split across shards); read the real count
  /// back via num_shards().
  size_t num_shards = 2;
  /// The dimension whose sort-dim quantiles become the shard boundaries
  /// (ShardMap::FromQuantiles): rows route by this dimension's value, and
  /// queries that filter it scatter only to intersecting shards.
  size_t sort_dim = 0;
  /// Per-shard DatabaseOptions (index type, threads, training workload,
  /// ...). Every shard gets the same knobs but learns its OWN layout over
  /// its own rows — the partition-per-region idea: skew that would warp
  /// one global layout stays local to a shard.
  DatabaseOptions shard_options;
};

/// N `flood::Database` instances partitioned by sort-dim key range
/// (ShardMap). Open() cuts the table at the sort-dim quantiles — equal row
/// counts per shard — and builds an independent database (own index, own
/// delta, own learned layout) over each slice.
///
/// This class only partitions. Reads and writes across shards go through
/// serve::Router (src/serve/router.h), the one planner and merger: use
/// Router::Over(&sharded) in process, or front the shards with flood_serve
/// processes and a remote router. The exception is Collect, which has no
/// wire message: TryCollect scatters here and rebases row ids into one
/// global id space. Per-query results through the router are
/// bit-identical to an unsharded Database over the same table —
/// tests/serve_router_test.cc enforces this for every registered index
/// with writes in flight.
///
/// Thread safety: same as Database — each shard has its own reader-writer
/// delta seam. A multi-shard TryCollect takes each shard's shared lock in
/// turn (not simultaneously), so it may observe a concurrent write on
/// shard A but not yet on shard B; per-shard results are always
/// consistent.
class ShardedDatabase {
 public:
  static StatusOr<ShardedDatabase> Open(const Table& table,
                                        ShardedDatabaseOptions options = {});

  ShardedDatabase(ShardedDatabase&&) = default;
  ShardedDatabase& operator=(ShardedDatabase&&) = default;
  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

  // --- Reads ----------------------------------------------------------------

  /// Scatter-gather Collect. Shard-local row ids are rebased into one
  /// global id space: shard s's ids are offset by the total id-space
  /// width (base_rows + delta_inserts) of shards 0..s-1, and TryGetRow
  /// resolves global ids back through the same offsets. Ids share
  /// Database::TryCollect's snapshot semantics — the next write or
  /// compaction on any shard re-numbers them.
  StatusOr<QueryResult> TryCollect(const Query& query);
  StatusOr<std::vector<Value>> TryGetRow(RowId global_row) const;

  // --- Introspection ----------------------------------------------------------

  const ShardMap& shard_map() const { return map_; }
  size_t num_shards() const { return shards_.size(); }
  /// Logical rows across all shards (base - tombstones + staged).
  size_t num_rows() const;

  /// Direct access to one shard (e.g. to wrap it in a serving backend or
  /// to Compact() it). The pointer is stable for the facade's lifetime.
  Database* shard(size_t s) {
    FLOOD_DCHECK(s < shards_.size());
    return shards_[s].get();
  }
  const Database* shard(size_t s) const {
    FLOOD_DCHECK(s < shards_.size());
    return shards_[s].get();
  }

 private:
  ShardedDatabase(ShardMap map, std::vector<std::unique_ptr<Database>> shards,
                  size_t num_dims)
      : map_(std::move(map)),
        shards_(std::move(shards)),
        num_dims_(num_dims) {}

  /// Per-shard global-id offsets under the current snapshot: shard s's
  /// local ids live at [offsets[s], offsets[s] + width(s)).
  std::vector<uint64_t> IdOffsets() const;

  ShardMap map_;
  std::vector<std::unique_ptr<Database>> shards_;
  size_t num_dims_ = 0;
};

}  // namespace flood

#endif  // FLOOD_API_SHARDED_DATABASE_H_
