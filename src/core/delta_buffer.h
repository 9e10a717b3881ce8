#ifndef FLOOD_CORE_DELTA_BUFFER_H_
#define FLOOD_CORE_DELTA_BUFFER_H_

#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "query/query.h"
#include "query/query_stats.h"
#include "storage/table.h"

namespace flood {

/// §8 "Insertions": a row-oriented write buffer in front of the read-only
/// index, in the spirit of differential files / Bigtable memtables. Queries
/// consult the main index plus a linear pass over the (small) buffer;
/// Materialize produces a fresh table for a rebuild once the buffer grows
/// past the caller's threshold.
///
/// Deletes are *tombstones*: the deleted base-table row ids are recorded
/// here (the built index stays immutable) and the query layer subtracts
/// their contribution from base results. Rows that were inserted into the
/// buffer and then deleted are erased directly (see EraseMatching) and
/// never need a tombstone.
///
/// Thread safety: none. The owner (flood::Database) serializes writers and
/// excludes them from readers via its reader-writer seam.
class DeltaBuffer {
 public:
  explicit DeltaBuffer(size_t num_dims) : columns_(num_dims) {}

  size_t num_dims() const { return columns_.size(); }

  /// Buffered (not yet compacted) inserted rows.
  size_t size() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }

  /// Tombstoned base-table rows awaiting compaction.
  size_t num_tombstones() const { return tombstones_.size(); }

  /// Total staged writes: buffered inserts + tombstones. This is what the
  /// auto-retrain policy compares against the base row count.
  size_t pending() const { return size() + num_tombstones(); }

  /// Appends one row. `row` must have num_dims() values.
  Status Insert(const std::vector<Value>& row);

  /// Erases every buffered insert equal to `key` (full-tuple equality).
  /// Returns the number of rows erased.
  size_t EraseMatching(const std::vector<Value>& key);

  /// Records base row `row` as deleted. Returns false (and does nothing)
  /// when the row is already tombstoned, so a double delete cannot subtract
  /// a base match twice.
  bool AddTombstone(RowId row);

  bool IsTombstoned(RowId row) const {
    return tombstone_set_.count(row) != 0;
  }

  /// Tombstoned base row ids in insertion order.
  const std::vector<RowId>& tombstones() const { return tombstones_; }

  /// Feeds buffered rows matching `query` to `visitor`. Buffered rows are
  /// addressed as base_row_id + i so they do not collide with main-index
  /// row ids.
  template <typename V>
  void Scan(const Query& query, V& visitor, RowId base_row_id,
            QueryStats* stats) const {
    size_t matched = 0;
    ForEachMatch(query, stats, [&](size_t i) {
      visitor.VisitRow(base_row_id + i);
      ++matched;
    });
    if (stats != nullptr) stats->points_matched += matched;
  }

  /// Linear pass over the buffered inserts: calls `fn(i)` for every
  /// buffered row i matching `query`'s predicate. Accounts the pass in
  /// `stats` (points_scanned + delta_rows_scanned, one ranges_scanned).
  template <typename Fn>
  void ForEachMatch(const Query& query, QueryStats* stats, Fn fn) const {
    const size_t n = size();
    if (stats != nullptr) {
      stats->points_scanned += n;
      stats->delta_rows_scanned += n;
      if (n > 0) ++stats->ranges_scanned;
    }
    for (size_t i = 0; i < n; ++i) {
      bool ok = true;
      for (size_t dim = 0; dim < columns_.size() && dim < query.num_dims();
           ++dim) {
        if (!query.IsFiltered(dim)) continue;
        if (!query.range(dim).Contains(columns_[dim][i])) {
          ok = false;
          break;
        }
      }
      if (ok) fn(i);
    }
  }

  /// Value accessor for buffered rows (dim-major storage).
  Value Get(size_t row, size_t dim) const { return columns_[dim][row]; }

  /// Builds the compacted table: `main` minus the tombstoned rows, plus
  /// the buffered inserts appended at the end. Does NOT clear the buffer —
  /// the caller clears after the rebuilt index is swapped in, so a failed
  /// rebuild loses no writes.
  StatusOr<Table> Materialize(const Table& main) const;

  void Clear() {
    for (auto& c : columns_) c.clear();
    tombstones_.clear();
    tombstone_set_.clear();
  }

 private:
  std::vector<std::vector<Value>> columns_;
  std::vector<RowId> tombstones_;
  std::unordered_set<RowId> tombstone_set_;
};

}  // namespace flood

#endif  // FLOOD_CORE_DELTA_BUFFER_H_
