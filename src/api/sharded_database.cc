#include "api/sharded_database.h"

#include <utility>

#include "common/macros.h"

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
      return Status::Internal("opening shard " + std::to_string(s) + " of " +
                              std::to_string(n) + ": " +
                              db.status().message());
    }
    shards.push_back(std::make_unique<Database>(std::move(*db)));
  }

  return ShardedDatabase(std::move(map), std::move(shards), table.num_dims());
}

// --- Reads -------------------------------------------------------------------

std::vector<uint64_t> ShardedDatabase::IdOffsets() const {
  std::vector<uint64_t> offsets(shards_.size(), 0);
  uint64_t acc = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    offsets[s] = acc;
    // Width of shard s's id space under the current snapshot: base-row ids
    // in [0, base_rows) plus staged-insert ids in [base_rows, base_rows +
    // delta_inserts) — see Database::TryCollect.
    acc += shards_[s]->base_rows() + shards_[s]->delta_inserts();
  }
  return offsets;
}

StatusOr<QueryResult> ShardedDatabase::TryCollect(const Query& query) {
  if (query.num_dims() != num_dims_) {
    return Status::InvalidArgument(
        "query has " + std::to_string(query.num_dims()) +
        " values, table has " + std::to_string(num_dims_) + " dimensions");
  }
  QueryResult merged;
  merged.kind = QueryResult::Kind::kRows;
  if (query.IsEmpty()) {
    merged.skipped_empty = true;
    return merged;
  }
  const std::vector<uint64_t> offsets = IdOffsets();
  const auto [first, last] = map_.ShardsForQuery(query);
  for (size_t s = first; s <= last; ++s) {
    auto part = shards_[s]->TryCollect(query);
    FLOOD_RETURN_IF_ERROR(part.status());
    merged.count += part->count;
    merged.stats.Add(part->stats);
    merged.rows.reserve(merged.rows.size() + part->rows.size());
    for (RowId local : part->rows) merged.rows.push_back(offsets[s] + local);
  }
  return merged;
}

StatusOr<std::vector<Value>> ShardedDatabase::TryGetRow(
    RowId global_row) const {
  const std::vector<uint64_t> offsets = IdOffsets();
  // The owning shard is the last one whose offset is <= global_row.
  size_t s = shards_.size() - 1;
  while (s > 0 && offsets[s] > global_row) --s;
  return shards_[s]->TryGetRow(global_row - offsets[s]);
}

// --- Introspection -----------------------------------------------------------

size_t ShardedDatabase::num_rows() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->num_rows();
  return total;
}

}  // namespace flood
