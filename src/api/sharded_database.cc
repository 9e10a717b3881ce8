#include "api/sharded_database.h"

#include <string>
#include <utility>

namespace flood {

StatusOr<ShardedDatabase> ShardedDatabase::Open(const Table& table,
                                                ShardedDatabaseOptions options) {
  if (table.num_dims() == 0) {
    return Status::InvalidArgument("cannot shard a table with no columns");
  }
  if (options.sort_dim >= table.num_dims()) {
    return Status::InvalidArgument(
        "sort_dim " + std::to_string(options.sort_dim) +
        " out of range for a " + std::to_string(table.num_dims()) +
        "-dimensional table");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }

  ShardMap map =
      ShardMap::FromQuantiles(table, options.sort_dim, options.num_shards);

  // Partition rows by shard, preserving the table's row order within each
  // shard (so a 1-shard ShardedDatabase is bit-identical to Database over
  // the same table).
  const size_t n = map.num_shards();
  std::vector<std::vector<RowId>> rows_of(n);
  const std::vector<Value> keys = table.DecodeColumn(options.sort_dim);
  for (RowId row = 0; row < table.num_rows(); ++row) {
    rows_of[map.ShardForValue(keys[row])].push_back(row);
  }

  std::vector<std::unique_ptr<Database>> shards;
  shards.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    const Table shard_table = table.Gather(rows_of[s]);
    auto db = Database::Open(shard_table, options.shard_options);
    if (!db.ok()) {
      const std::string where =
          "opening shard " + std::to_string(s) + " of " + std::to_string(n);
      return Status(db.status().code(), where + ": " + db.status().message());
    }
    shards.push_back(std::make_unique<Database>(std::move(*db)));
  }

  return ShardedDatabase(std::move(map), std::move(shards));
}

// --- Introspection -----------------------------------------------------------

size_t ShardedDatabase::num_rows() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->num_rows();
  return total;
}

}  // namespace flood
