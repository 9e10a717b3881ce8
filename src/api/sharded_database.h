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
/// This class only partitions; it has no read or write method. Every read
/// and write across shards goes through serve::Router (src/serve/router.h),
/// the one planner, scatter and merger: use Router::Over(&sharded) in
/// process (`flood_serve --shards N`), or front flood_serve shard processes
/// with a remote router (`flood_serve --backend ...`). Per-query results
/// through the router are bit-identical to an unsharded Database over the
/// same table — tests/serve_router_test.cc enforces this for every
/// registered index with writes in flight.
///
/// Thread safety: same as Database — each shard has its own reader-writer
/// delta seam, so reads are consistent per shard, not across shards.
class ShardedDatabase {
 public:
  static StatusOr<ShardedDatabase> Open(const Table& table,
                                        ShardedDatabaseOptions options = {});

  ShardedDatabase(ShardedDatabase&&) = default;
  ShardedDatabase& operator=(ShardedDatabase&&) = default;
  ShardedDatabase(const ShardedDatabase&) = delete;
  ShardedDatabase& operator=(const ShardedDatabase&) = delete;

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
  ShardedDatabase(ShardMap map, std::vector<std::unique_ptr<Database>> shards)
      : map_(std::move(map)), shards_(std::move(shards)) {}

  ShardMap map_;
  std::vector<std::unique_ptr<Database>> shards_;
};

}  // namespace flood

#endif  // FLOOD_API_SHARDED_DATABASE_H_
