#include "serve/engine.h"

#include <utility>

#include "persist/snapshot.h"

namespace flood {
namespace serve {

EngineBatchResult EngineResultFromBatch(const BatchResult& batch) {
  EngineBatchResult out;
  out.status = batch.status;
  out.wall_ms = batch.wall_ms;
  out.results.reserve(batch.results.size());
  for (const QueryResult& qr : batch.results) {
    EngineQueryResult er;
    er.kind = qr.kind == QueryResult::Kind::kSum ? 1 : 0;
    er.skipped_empty = qr.skipped_empty;
    er.count = qr.count;
    er.sum = qr.sum;
    er.total_ns = static_cast<uint64_t>(qr.stats.total_ns);
    out.results.push_back(std::move(er));
  }
  return out;
}

std::vector<std::pair<std::string, double>> DatabaseGauges(
    const Database& db) {
  std::vector<std::pair<std::string, double>> entries;
  auto put = [&entries](const char* key, double value) {
    entries.emplace_back(key, value);
  };
  put("db.base_rows", static_cast<double>(db.base_rows()));
  put("db.num_rows", static_cast<double>(db.num_rows()));
  put("db.pending_writes", static_cast<double>(db.pending_writes()));
  put("db.delta_inserts", static_cast<double>(db.delta_inserts()));
  put("db.delta_tombstones", static_cast<double>(db.delta_tombstones()));
  put("db.compactions", static_cast<double>(db.compactions()));
  put("db.queries_run", static_cast<double>(db.queries_run()));
  put("db.empty_queries_skipped",
      static_cast<double>(db.empty_queries_skipped()));
  put("db.slow_queries", static_cast<double>(db.slow_queries()));
  put("db.persist_epoch", static_cast<double>(db.persist_epoch()));
  put("db.persist_poisoned", db.persistence_poisoned() ? 1.0 : 0.0);
  put("persist.dir_fsync_failures",
      static_cast<double>(persist::DirFsyncFailures()));
  put("db.num_threads", static_cast<double>(db.num_threads()));
  // Cumulative QueryStats: every counter and timing the execution layer
  // tracks is surfaced here, so the wire Stats map stays a faithful
  // superset of what a local caller can read (metrics_test diffs the key
  // set against QueryStats to catch fields added on one side only).
  const QueryStats qs = db.cumulative_stats();
  put("db.points_scanned", static_cast<double>(qs.points_scanned));
  put("db.points_matched", static_cast<double>(qs.points_matched));
  put("db.points_exact", static_cast<double>(qs.points_exact));
  put("db.cells_visited", static_cast<double>(qs.cells_visited));
  put("db.ranges_scanned", static_cast<double>(qs.ranges_scanned));
  put("db.blocks_skipped", static_cast<double>(qs.blocks_skipped));
  put("db.blocks_exact", static_cast<double>(qs.blocks_exact));
  put("db.simd_blocks", static_cast<double>(qs.simd_blocks));
  put("db.delta_rows_scanned", static_cast<double>(qs.delta_rows_scanned));
  put("db.index_ns", static_cast<double>(qs.index_ns));
  put("db.refine_ns", static_cast<double>(qs.refine_ns));
  put("db.scan_ns", static_cast<double>(qs.scan_ns));
  put("db.delta_ns", static_cast<double>(qs.delta_ns));
  put("db.total_ns", static_cast<double>(qs.total_ns));
  put("db.max_query_ns", static_cast<double>(qs.max_query_ns));
  return entries;
}

void DatabaseEngine::RunBatchAsync(
    std::vector<Query> queries, std::function<void(EngineBatchResult)> on_done) {
  // Keep the query storage alive until the batch finishes: RunBatchAsync
  // copies the span's contents internally, so moving the vector into the
  // callback is not required — but the span must be valid at call time.
  db_->RunBatchAsync(queries, [on_done = std::move(on_done)](
                                  BatchResult batch) mutable {
    on_done(EngineResultFromBatch(batch));
  });
}

Status DatabaseEngine::Insert(const std::vector<Value>& row) {
  return db_->Insert(row);
}

Status DatabaseEngine::InsertBatch(std::span<const std::vector<Value>> rows) {
  return db_->InsertBatch(rows);
}

StatusOr<uint64_t> DatabaseEngine::Delete(const std::vector<Value>& key) {
  auto deleted = db_->Delete(key);
  FLOOD_RETURN_IF_ERROR(deleted.status());
  return static_cast<uint64_t>(*deleted);
}

EngineHealth DatabaseEngine::Health() const {
  EngineHealth h;
  h.ready = true;
  h.persist_poisoned = db_->persistence_poisoned();
  return h;
}

std::vector<std::pair<std::string, double>> DatabaseEngine::Introspect()
    const {
  return DatabaseGauges(*db_);
}

}  // namespace serve
}  // namespace flood
