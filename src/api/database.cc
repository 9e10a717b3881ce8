#include "api/database.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <string>
#include <utility>

#include "api/index_registry.h"
#include "common/failpoint.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "persist/snapshot.h"
#include "query/executor.h"
#include "query/visitor.h"

namespace flood {

double BatchResult::LatencyPercentileMs(double p) const {
  // One histogram implementation for every percentile reader in the repo
  // (obs::HistogramData) instead of a private sort: the readout is the
  // bucket upper bound clamped to the exact max, so p100 is still the
  // exact slowest query and every p is within one log-linear bucket
  // (<= 25%) of the sorted value.
  obs::HistogramData hist;
  for (const QueryResult& r : results) {
    if (!r.skipped_empty) hist.Record(r.stats.total_ns);
  }
  return static_cast<double>(hist.Percentile(p)) / 1e6;
}

StatusOr<Database> Database::Open(const Table& table,
                                  DatabaseOptions options) {
  if (table.num_rows() == 0) {
    return Status::InvalidArgument("cannot open a database on an empty table");
  }
  StatusOr<std::string> canonical =
      IndexRegistry::Global().Resolve(options.index_name);
  if (!canonical.ok()) return canonical.status();

  Database db(std::move(options), *canonical);
  StatusOr<std::unique_ptr<MultiDimIndex>> index = db.BuildIndex(
      table, db.options_.training_workload.has_value()
                 ? &*db.options_.training_workload
                 : nullptr);
  if (!index.ok()) return index.status();
  db.index_ = std::move(*index);
  db.num_dims_ = table.num_dims();
  db.write_ = std::make_unique<WriteState>(table.num_dims());
  db.num_threads_ = db.options_.num_threads == 0
                        ? ThreadPool::DefaultConcurrency()
                        : db.options_.num_threads;
  if (db.num_threads_ > 1) {
    db.pool_ = std::make_unique<ThreadPool>(db.num_threads_);
  }
  if (!db.options_.wal_path.empty()) {
    // Fresh-table open at epoch 0: an existing log at this path (same
    // table, previous run, never snapshotted) is replayed; a log from a
    // later checkpoint is rejected (open from that snapshot instead).
    const std::string wal_path = std::move(db.options_.wal_path);
    db.options_.wal_path.clear();
    FLOOD_RETURN_IF_ERROR(db.AttachWal(wal_path));
  }
  return db;
}

StatusOr<Database> Database::Open(const std::string& snapshot_path,
                                  DatabaseOptions options) {
  StatusOr<persist::SnapshotData> snap = persist::ReadSnapshot(snapshot_path);
  if (!snap.ok()) return snap.status();

  // Structural knobs come from the snapshot; caller-set index_options keys
  // override individually, runtime knobs (threads, WAL, compaction policy)
  // stay the caller's.
  // `runtime_options` is what the database keeps for future rebuilds
  // (Compact/Retrain must stay free to RElearn the layout); `build_options`
  // additionally pins the snapshot's learned layout so this one Build
  // skips the optimizer. A layout the caller pinned explicitly lands in
  // both via the override loop.
  IndexOptions runtime_options;
  for (const auto& [key, value] : snap->index_options) {
    runtime_options.Set(key, value);
  }
  for (const std::string& key : options.index_options.Keys()) {
    runtime_options.Set(key, *options.index_options.Get(key));
  }
  IndexOptions build_options = runtime_options;
  if (!snap->layout.empty() && !options.index_options.Has("layout")) {
    build_options.Set("layout", snap->layout);
  }
  options.index_name = snap->index_name;
  options.index_options = std::move(build_options);
  if (!options.training_workload.has_value() && snap->workload.has_value()) {
    options.training_workload = std::move(snap->workload);
  }
  std::string wal_path = std::move(options.wal_path);
  options.wal_path.clear();

  StatusOr<Database> db = Open(snap->base, std::move(options));
  if (!db.ok()) return db.status();
  // Drop the injected pin: the *next* compaction relearns the layout from
  // the recorded/training workload like any cold-opened database would.
  db->options_.index_options = std::move(runtime_options);

  // Restore the staged delta. Inserts are replayed verbatim; tombstones
  // were stored as distinct key tuples and are re-resolved against the
  // rebuilt index (Delete(key) tombstoned *every* base match, so the key
  // set reproduces the exact tombstone set in any deterministic rebuild).
  for (const std::vector<Value>& row : snap->delta_inserts) {
    FLOOD_RETURN_IF_ERROR(db->write_->delta.Insert(row));
  }
  for (const std::vector<Value>& key : snap->tombstone_keys) {
    (void)db->TombstoneKeyLocked(key);
  }
  db->write_->snapshot_path = snapshot_path;
  db->write_->epoch = snap->epoch;
  if (!wal_path.empty()) {
    FLOOD_RETURN_IF_ERROR(db->AttachWal(wal_path));
  }
  return db;
}

StatusOr<std::unique_ptr<MultiDimIndex>> Database::BuildIndex(
    const Table& table, const Workload* workload) const {
  StatusOr<std::unique_ptr<MultiDimIndex>> index =
      IndexRegistry::Global().Create(index_name_, options_.index_options);
  if (!index.ok()) return index.status();
  FLOOD_RETURN_IF_ERROR((*index)->Build(table, BuildContext{workload}));
  return index;
}

Status Database::ValidateArity(const Query& query) const {
  // Arity mismatches would read past the column array deep in the scan
  // loops; catch them at the API boundary instead.
  if (query.num_dims() != num_dims_) {
    return Status::InvalidArgument(
        "query has " + std::to_string(query.num_dims()) +
        " dims, table has " + std::to_string(num_dims_));
  }
  return Status::OK();
}

void Database::MergeDeltaAggregate(const Query& query,
                                   QueryResult* result) const {
  const DeltaBuffer& delta = write_->delta;
  if (delta.pending() == 0) return;
  const Stopwatch timer;
  const bool is_sum = query.agg().kind == AggSpec::Kind::kSum;
  const size_t agg_dim = query.agg().dim;
  // Wrapping uint64 accumulation, matching SumVisitor's overflow
  // semantics; COUNT subtraction is safe because every subtracted
  // tombstone was counted by the base execution.
  uint64_t count = result->count;
  uint64_t sum = static_cast<uint64_t>(result->sum);
  size_t matched = 0;
  delta.ForEachMatch(query, &result->stats, [&](size_t i) {
    ++count;
    ++matched;
    if (is_sum) sum += static_cast<uint64_t>(delta.Get(i, agg_dim));
  });
  result->stats.points_matched += matched;
  // Tombstoned base matches: subtract their contribution, including from
  // points_matched, which reports *logical* matches delivered to the
  // caller (the base execution counted them physically).
  const Table& base = index_->data();
  const std::vector<RowId>& tombstones = delta.tombstones();
  result->stats.delta_rows_scanned += tombstones.size();
  for (RowId r : tombstones) {
    if (query.Matches(base, r)) {
      --count;
      --result->stats.points_matched;
      if (is_sum) sum -= static_cast<uint64_t>(base.Get(r, agg_dim));
    }
  }
  const int64_t ns = timer.ElapsedNanos();
  result->stats.scan_ns += ns;
  result->stats.delta_ns += ns;
  result->stats.total_ns += ns;
  result->count = count;
  result->sum = static_cast<int64_t>(sum);
}

QueryResult Database::ExecuteQueryLocked(const Query& query) const {
  QueryResult result;
  result.kind = query.agg().kind == AggSpec::Kind::kSum
                    ? QueryResult::Kind::kSum
                    : QueryResult::Kind::kCount;
  if (query.IsEmpty()) {
    result.skipped_empty = true;
    return result;
  }
  const AggResult agg = ExecuteAggregate(*index_, query, &result.stats);
  result.count = agg.count;
  result.sum = agg.sum;
  MergeDeltaAggregate(query, &result);
  return result;
}

QueryResult Database::ExecuteQuery(const Query& query) const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return ExecuteQueryLocked(query);
}

void Database::RecordQueryLocked(const Query& query) {
  const size_t cap = options_.workload_history;
  if (cap == 0) return;
  if (telemetry_->history.size() < cap) {
    telemetry_->history.push_back(query);
  } else {
    telemetry_->history[telemetry_->history_next] = query;
  }
  telemetry_->history_next = (telemetry_->history_next + 1) % cap;
}

bool Database::NoteQueryMetrics(const QueryResult& result) const {
  if (result.skipped_empty) return false;
  const QueryStats& s = result.stats;
  obs::DbMetrics& m = obs::GlobalDbMetrics();
  m.query_ns->Record(s.total_ns);
  m.plan_ns->Record(s.index_ns);
  m.refine_ns->Record(s.refine_ns);
  m.scan_ns->Record(s.scan_ns);
  m.delta_merge_ns->Record(s.delta_ns);
  const bool slow =
      options_.slow_query_ns > 0 && s.total_ns > options_.slow_query_ns;
  if (slow) {
    std::string line =
        "slow_query threshold_ns=" + std::to_string(options_.slow_query_ns);
    ForEachField(kQueryStatsSums, [&line, &s](const auto& f) {
      line += std::string(" ") + f.name + "=" + std::to_string(s.*f.member);
    });
    if (options_.slow_query_log) {
      options_.slow_query_log(line);
    } else {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }
  return slow;
}

void Database::RecordTelemetry(const Query& query,
                               const QueryResult& result) {
  const bool slow = NoteQueryMetrics(result);
  std::lock_guard<std::mutex> lock(telemetry_->mu);
  ++telemetry_->queries_run;
  if (result.skipped_empty) {
    ++telemetry_->empty_skipped;
    return;
  }
  telemetry_->slow_queries += slow ? 1 : 0;
  telemetry_->stats.RecordQuery(result.stats);
  RecordQueryLocked(query);
}

StatusOr<QueryResult> Database::TryRun(const Query& query) {
  FLOOD_RETURN_IF_ERROR(ValidateArity(query));
  QueryResult result = ExecuteQuery(query);
  RecordTelemetry(query, result);
  return result;
}

StatusOr<QueryResult> Database::TryCollect(const Query& query) {
  FLOOD_RETURN_IF_ERROR(ValidateArity(query));
  QueryResult result;
  result.kind = QueryResult::Kind::kRows;
  if (query.IsEmpty()) {
    result.skipped_empty = true;
  } else {
    std::shared_lock<std::shared_mutex> lock(write_->mu);
    CollectVisitor visitor;
    index_->Execute(query, visitor, &result.stats);
    const DeltaBuffer& delta = write_->delta;
    if (delta.pending() > 0) {
      const Stopwatch timer;
      if (delta.num_tombstones() > 0) {
        const size_t before = visitor.mutable_rows().size();
        std::erase_if(visitor.mutable_rows(),
                      [&delta](RowId r) { return delta.IsTombstoned(r); });
        // points_matched reports logical matches, like the row set.
        result.stats.points_matched -=
            before - visitor.mutable_rows().size();
        result.stats.delta_rows_scanned += delta.num_tombstones();
      }
      // Tombstone ids are always < base, so the erase above can never hit
      // the staged ids Scan appends here.
      delta.Scan(query, visitor,
                 static_cast<RowId>(index_->data().num_rows()),
                 &result.stats);
      const int64_t ns = timer.ElapsedNanos();
      result.stats.scan_ns += ns;
      result.stats.delta_ns += ns;
      result.stats.total_ns += ns;
    }
    result.rows = std::move(visitor.mutable_rows());
    result.count = result.rows.size();
  }
  RecordTelemetry(query, result);
  return result;
}

QueryResult Database::Run(const Query& query) {
  StatusOr<QueryResult> result = TryRun(query);
  FLOOD_CHECK(result.ok());
  return std::move(result).value();
}

QueryResult Database::Collect(const Query& query) {
  StatusOr<QueryResult> result = TryCollect(query);
  FLOOD_CHECK(result.ok());
  return std::move(result).value();
}

void Database::RunShard(std::span<const Query> queries, size_t begin,
                        size_t end, QueryResult* results,
                        ShardAccum* acc) const {
  // One shared-lock acquisition per shard, not per query: workers don't
  // hammer the seam's cache line on cheap queries. The cost is that a
  // writer waits for the slowest in-flight shard instead of a single
  // query before it can stage.
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  for (size_t i = begin; i < end; ++i) {
    results[i] = ExecuteQueryLocked(queries[i]);
    if (results[i].skipped_empty) {
      ++acc->empty_skipped;
      continue;
    }
    acc->stats.RecordQuery(results[i].stats);
    acc->slow_queries += NoteQueryMetrics(results[i]) ? 1 : 0;
  }
}

Status Database::ValidateBatch(std::span<const Query> queries) const {
  for (size_t i = 0; i < queries.size(); ++i) {
    const Status arity = ValidateArity(queries[i]);
    if (!arity.ok()) {
      return Status::InvalidArgument("batch query " + std::to_string(i) +
                                     ": " + arity.message());
    }
  }
  return Status::OK();
}

BatchResult Database::RunBatch(std::span<const Query> queries) {
  // The caller blocks until the batch is done, so the batch may borrow the
  // caller's span instead of copying it.
  auto done = std::make_shared<std::promise<BatchResult>>();
  std::future<BatchResult> result = done->get_future();
  ExecuteBatch(queries, /*caller_waits=*/true, [done](BatchResult batch) {
    done->set_value(std::move(batch));
  });
  return result.get();
}

BatchResult Database::RunBatch(const Workload& workload) {
  return RunBatch(std::span<const Query>(workload.queries()));
}

void Database::FoldBatchTelemetry(std::span<const Query> queries,
                                  const BatchResult& batch,
                                  uint64_t slow_queries, bool ran_inline) {
  {
    obs::DbMetrics& m = obs::GlobalDbMetrics();
    m.batch_ns->Record(static_cast<int64_t>(batch.wall_ms * 1e6));
    m.batch_queries->Record(static_cast<int64_t>(queries.size()));
  }
  std::lock_guard<std::mutex> lock(telemetry_->mu);
  telemetry_->stats.Merge(batch.stats);
  telemetry_->queries_run += queries.size();
  telemetry_->empty_skipped += batch.empty_skipped;
  telemetry_->slow_queries += slow_queries;
  telemetry_->batches_inline += ran_inline ? 1 : 0;
  if (batch.executed() > 0) {
    // Exponential moving mean, weight 1/8 per batch: one outlier query
    // sends a few batches back to the pool, and a lasting shift in the
    // query mix moves the prediction within a batch or two.
    const int64_t batch_mean =
        batch.stats.total_ns / static_cast<int64_t>(batch.executed());
    const int64_t prev =
        telemetry_->mean_query_ns.load(std::memory_order_relaxed);
    const int64_t next =
        prev == 0 ? batch_mean : prev + (batch_mean - prev) / 8;
    // 0 means "no measurement yet", so a measured mean is at least 1 ns.
    telemetry_->mean_query_ns.store(std::max<int64_t>(1, next),
                                    std::memory_order_relaxed);
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!batch.results[i].skipped_empty) RecordQueryLocked(queries[i]);
  }
}

void Database::ExecuteBatch(std::span<const Query> queries, bool caller_waits,
                            std::function<void(BatchResult)> on_done) {
  {
    Status status = ValidateBatch(queries);
    if (!status.ok()) {
      BatchResult batch;
      batch.status = std::move(status);
      on_done(std::move(batch));
      return;
    }
  }
  // The dispatch rule documented on RunBatch. No mean yet = expensive.
  const size_t n = queries.size();
  const size_t workers = pool_ != nullptr ? pool_->num_threads() : 1;
  const size_t carved = std::max<size_t>(1, std::min(workers, n));
  const int64_t mean_ns =
      telemetry_->mean_query_ns.load(std::memory_order_relaxed);
  const double predicted_ns = static_cast<double>(mean_ns) * n;
  const bool cheap = mean_ns > 0 && predicted_ns < kInlineBatchNs;
  const bool run_inline =
      pool_ == nullptr || (caller_waits && carved == 1) || cheap;
  const size_t shards = run_inline ? 1 : carved;

  // Shared completion state: shards decrement `remaining`, and whichever
  // one hits zero merges, folds telemetry, and fires the callback. No
  // shard ever waits on another shard (the ThreadPool forbids that), so
  // any number of async batches can be in flight on one pool.
  struct BatchRun {
    std::vector<Query> owned;  ///< Copy when the caller's span may die first.
    std::span<const Query> queries;
    BatchResult batch;
    std::vector<ShardAccum> accums;
    std::atomic<size_t> remaining{0};
    Stopwatch wall;  ///< Starts at submission: wall_ms includes queue wait.
    std::function<void(BatchResult)> on_done;
  };
  auto run = std::make_shared<BatchRun>();
  if (run_inline || caller_waits) {
    run->queries = queries;
  } else {
    run->owned.assign(queries.begin(), queries.end());
    run->queries = run->owned;
  }
  run->on_done = std::move(on_done);
  run->batch.results.resize(n);
  run->accums.resize(shards);
  run->remaining.store(shards, std::memory_order_relaxed);

  auto run_shard = [this, run, run_inline](size_t s, size_t begin,
                                           size_t end) {
    RunShard(run->queries, begin, end, run->batch.results.data(),
             &run->accums[s]);
    if (run->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    // Deterministic merge: always in shard order, whatever order the
    // shards actually finished in.
    uint64_t slow_queries = 0;
    for (const ShardAccum& acc : run->accums) {
      run->batch.stats.Merge(acc.stats);
      run->batch.empty_skipped += acc.empty_skipped;
      slow_queries += acc.slow_queries;
    }
    run->batch.wall_ms = run->wall.ElapsedMillis();
    FoldBatchTelemetry(run->queries, run->batch, slow_queries, run_inline);
    run->on_done(std::move(run->batch));
  };
  if (run_inline) {
    run_shard(0, 0, n);
    return;
  }
  // Contiguous near-equal shards keep results[i] aligned with queries[i]
  // for free and let each worker stream through its slice of the results.
  const size_t base = n / shards;
  const size_t extra = n % shards;
  size_t begin = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t end = begin + base + (s < extra ? 1 : 0);
    pool_->Submit([run_shard, s, begin, end] { run_shard(s, begin, end); });
    begin = end;
  }
}

void Database::RunBatchAsync(std::span<const Query> queries,
                             std::function<void(BatchResult)> on_done) {
  ExecuteBatch(queries, /*caller_waits=*/false, std::move(on_done));
}

// --- Writes ---------------------------------------------------------------

Status Database::Insert(const std::vector<Value>& row) {
  return InsertBatch({&row, 1});
}

Status Database::InsertBatch(std::span<const std::vector<Value>> rows) {
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != num_dims_) {
      return Status::InvalidArgument(
          "batch row " + std::to_string(i) + " has " +
          std::to_string(rows[i].size()) + " values, table has " +
          std::to_string(num_dims_) + " dims");
    }
  }
  std::unique_lock<std::shared_mutex> lock(write_->mu);
  FLOOD_RETURN_IF_ERROR(write_->wal_error);
  if (write_->wal != nullptr) {
    // Log-before-mutate, as one group commit: the whole batch rides one
    // write() (+ one fsync under Durability::kSync) before any row is
    // staged, so a WAL failure acknowledges (and stages) nothing.
    for (const std::vector<Value>& row : rows) {
      write_->wal->AppendInsert(row);
    }
    FLOOD_RETURN_IF_ERROR(write_->wal->Commit());
  }
  for (const std::vector<Value>& row : rows) {
    FLOOD_RETURN_IF_ERROR(write_->delta.Insert(row));
  }
  MaybeAutoCompactLocked();
  return Status::OK();
}

StatusOr<size_t> Database::Delete(const std::vector<Value>& key) {
  if (key.size() != num_dims_) {
    return Status::InvalidArgument(
        "key has " + std::to_string(key.size()) + " values, table has " +
        std::to_string(num_dims_) + " dims");
  }
  std::unique_lock<std::shared_mutex> lock(write_->mu);
  if (!write_->wal_error.ok()) return write_->wal_error;
  if (write_->wal != nullptr) {
    write_->wal->AppendDelete(key);
    FLOOD_RETURN_IF_ERROR(write_->wal->Commit());
  }
  size_t deleted = write_->delta.EraseMatching(key);
  deleted += TombstoneKeyLocked(key);
  MaybeAutoCompactLocked();
  return deleted;
}

size_t Database::TombstoneKeyLocked(const std::vector<Value>& key) {
  // Tombstone every base row equal to the key, located with an exact-match
  // query through the (immutable) index. AddTombstone refuses duplicates,
  // so deleting the same key twice cannot subtract a base match twice.
  Query probe(num_dims_);
  for (size_t dim = 0; dim < num_dims_; ++dim) probe.SetEquals(dim, key[dim]);
  CollectVisitor visitor;
  index_->Execute(probe, visitor, nullptr);
  size_t added = 0;
  for (RowId r : visitor.rows()) {
    if (write_->delta.AddTombstone(r)) ++added;
  }
  return added;
}

Status Database::CompactLocked(const Workload* workload) {
  // Lets tests force a compaction failure without corrupting anything —
  // the auto-compaction backoff policy below is exercised through here.
  FLOOD_FAILPOINT("db.compact");
  // The whole body runs under the exclusive lock: its duration IS the
  // pause queries and writes observe.
  const Stopwatch pause;
  struct PauseRecorder {
    const Stopwatch& watch;
    ~PauseRecorder() {
      obs::GlobalDbMetrics().compaction_pause_ns->Record(watch.ElapsedNanos());
    }
  } pause_recorder{pause};
  Workload recorded;
  if (workload == nullptr) {
    {
      std::lock_guard<std::mutex> lock(telemetry_->mu);
      recorded = Workload(telemetry_->history);
    }
    if (!recorded.empty()) {
      workload = &recorded;
    } else if (options_.training_workload.has_value()) {
      workload = &*options_.training_workload;
    }
  }
  DeltaBuffer& delta = write_->delta;
  if (delta.pending() == 0) {
    // Nothing staged: a pure relearn over the current storage copy (the
    // pre-write-path Retrain). Every Build re-clusters its input, so the
    // index's own table serves as the source.
    StatusOr<std::unique_ptr<MultiDimIndex>> index =
        BuildIndex(index_->data(), workload);
    if (!index.ok()) return index.status();
    index_ = std::move(*index);
  } else {
    StatusOr<Table> merged = delta.Materialize(index_->data());
    if (!merged.ok()) return merged.status();
    if (merged->num_rows() == 0) {
      return Status::FailedPrecondition(
          "compaction would leave the table empty");
    }
    StatusOr<std::unique_ptr<MultiDimIndex>> index =
        BuildIndex(*merged, workload);
    if (!index.ok()) return index.status();
    // Point of no return: swap the rebuilt index in, then drop the staged
    // writes it now contains.
    index_ = std::move(*index);
    delta.Clear();
  }
  ++write_->compactions;
  write_->auto_compact_retry_at = 0;  // A success clears any backoff.
  if (!write_->snapshot_path.empty()) {
    // Checkpoint: re-snapshot the compacted state, then truncate the WAL.
    // A failure here surfaces but loses nothing — compaction is logically
    // invisible, so the previous snapshot plus the untruncated WAL still
    // reproduce the exact logical state.
    FLOOD_RETURN_IF_ERROR(SaveLocked(write_->snapshot_path));
  }
  return Status::OK();
}

Status Database::SaveLocked(const std::string& path) {
  const Stopwatch checkpoint;
  struct CheckpointRecorder {
    const Stopwatch& watch;
    ~CheckpointRecorder() {
      obs::GlobalDbMetrics().checkpoint_ns->Record(watch.ElapsedNanos());
    }
  } checkpoint_recorder{checkpoint};
  persist::SnapshotContents contents;
  contents.epoch = write_->epoch + 1;
  contents.index_name = index_name_;
  for (const std::string& key : options_.index_options.Keys()) {
    contents.index_options.emplace_back(key, *options_.index_options.Get(key));
  }
  contents.layout = index_->SerializedLayout();
  const Table& base = index_->data();
  contents.base = &base;
  contents.workload = options_.training_workload.has_value()
                          ? &*options_.training_workload
                          : nullptr;
  const DeltaBuffer& delta = write_->delta;
  contents.delta_inserts.reserve(delta.size());
  for (size_t i = 0; i < delta.size(); ++i) {
    std::vector<Value> row(num_dims_);
    for (size_t d = 0; d < num_dims_; ++d) row[d] = delta.Get(i, d);
    contents.delta_inserts.push_back(std::move(row));
  }
  // Tombstones travel as distinct key tuples, not row ids: Delete(key)
  // tombstoned every base match, so the key set identifies the same rows
  // in any deterministic rebuild order of the restored table.
  for (RowId r : delta.tombstones()) {
    std::vector<Value> key(num_dims_);
    for (size_t d = 0; d < num_dims_; ++d) key[d] = base.Get(r, d);
    contents.tombstone_keys.push_back(std::move(key));
  }
  std::sort(contents.tombstone_keys.begin(), contents.tombstone_keys.end());
  contents.tombstone_keys.erase(
      std::unique(contents.tombstone_keys.begin(),
                  contents.tombstone_keys.end()),
      contents.tombstone_keys.end());

  const Status written = persist::WriteSnapshot(path, contents);
  if (!written.ok()) {
    // Persistence is poisoned (ENOSPC, EIO, ...): the snapshot on disk is
    // stale but intact (the write was atomic), the WAL still acknowledges
    // writes, and reads are untouched. Recorded so the serving tier's
    // kHealth response can tell load balancers durability is degraded.
    write_->last_checkpoint = written;
    return written;
  }
  write_->last_checkpoint = Status::OK();
  // The snapshot is durable: advance the checkpoint and fold the WAL into
  // it. A crash (or failure) between these two steps is safe — the WAL is
  // then stale (lower epoch) and discarded on the next open, because its
  // records are inside the snapshot just written.
  write_->epoch = contents.epoch;
  write_->snapshot_path = path;
  if (write_->wal != nullptr) {
    const Status reset = write_->wal->Reset(write_->epoch);
    if (!reset.ok()) {
      // The on-disk log no longer pairs with the snapshot just written:
      // its lower-epoch records would be discarded by recovery, so any
      // further acknowledgement through it would be a lie. Detach the
      // writer and refuse writes until a reopen re-establishes the pair.
      write_->wal.reset();
      write_->wal_error = Status::Internal(
          "wal detached: checkpoint truncation failed (" + reset.message() +
          "); writes are refused so no acknowledged record can be lost — "
          "reopen from " + path + " to recover");
      return write_->wal_error;
    }
  }
  return Status::OK();
}

Status Database::Save(const std::string& path) {
  std::unique_lock<std::shared_mutex> lock(write_->mu);
  return SaveLocked(path);
}

Status Database::ApplyWalRecordLocked(const persist::WalRecord& record) {
  if (record.values.size() != num_dims_) {
    return Status::InvalidArgument(
        "wal record has " + std::to_string(record.values.size()) +
        " values, table has " + std::to_string(num_dims_) +
        " dims (is this the right log for this database?)");
  }
  if (record.type == persist::WalRecordType::kInsert) {
    return write_->delta.Insert(record.values);
  }
  (void)write_->delta.EraseMatching(record.values);
  (void)TombstoneKeyLocked(record.values);
  return Status::OK();
}

Status Database::AttachWal(const std::string& path) {
  const bool sync = options_.durability == Durability::kSync;
  StatusOr<persist::WalContents> contents = persist::ReadWal(path);
  if (!contents.ok() &&
      contents.status().code() != StatusCode::kNotFound) {
    return contents.status();
  }
  if (contents.ok() && contents->epoch > write_->epoch) {
    return Status::FailedPrecondition(
        "wal " + path + " is at checkpoint epoch " +
        std::to_string(contents->epoch) + ", ahead of this database (epoch " +
        std::to_string(write_->epoch) +
        "); open from the latest snapshot instead");
  }
  if (contents.ok() && contents->epoch == write_->epoch) {
    // The log extends the current state: replay the intact records, chop
    // any torn tail (bytes of a commit that never returned), and append
    // after it.
    for (const persist::WalRecord& record : contents->records) {
      FLOOD_RETURN_IF_ERROR(ApplyWalRecordLocked(record));
    }
    if (contents->torn_tail) {
      FLOOD_RETURN_IF_ERROR(persist::TruncateWal(path, contents->valid_bytes));
    }
    StatusOr<persist::WalWriter> writer = persist::WalWriter::Append(
        path, contents->epoch, sync, contents->valid_bytes);
    if (!writer.ok()) return writer.status();
    write_->wal =
        std::make_unique<persist::WalWriter>(std::move(*writer));
  } else {
    // Missing — or stale (lower epoch): those records are already folded
    // into the snapshot this database was opened from. Start fresh.
    StatusOr<persist::WalWriter> writer =
        persist::WalWriter::Create(path, write_->epoch, sync);
    if (!writer.ok()) return writer.status();
    write_->wal =
        std::make_unique<persist::WalWriter>(std::move(*writer));
  }
  options_.wal_path = path;
  return Status::OK();
}

void Database::MaybeAutoCompactLocked() {
  const double fraction = options_.auto_retrain_fraction;
  if (fraction <= 0.0) return;
  const size_t pending = write_->delta.pending();
  const double base = static_cast<double>(index_->data().num_rows());
  if (static_cast<double>(pending) <= fraction * base) return;
  // Backoff: a failed attempt costs O(base rows) under the exclusive
  // lock, so don't re-try on every write — only once the delta has
  // doubled since the failure. The error is kept readable via
  // last_auto_compact_status(); reads stay correct either way.
  if (write_->auto_compact_retry_at != 0 &&
      pending < write_->auto_compact_retry_at) {
    return;
  }
  const Status status = CompactLocked(nullptr);
  write_->last_auto_compact = status;
  write_->auto_compact_retry_at = status.ok() ? 0 : pending * 2;
}

Status Database::Compact() {
  std::unique_lock<std::shared_mutex> lock(write_->mu);
  return CompactLocked(nullptr);
}

Status Database::Retrain(const Workload& workload) {
  std::unique_lock<std::shared_mutex> lock(write_->mu);
  // Adopt the new workload *before* compacting: CompactLocked's checkpoint
  // snapshots options_.training_workload, and persisting the old one next
  // to the freshly retrained layout would silently revert the layout at
  // the first post-restore compaction.
  std::optional<Workload> previous = std::move(options_.training_workload);
  options_.training_workload = workload;
  const uint64_t compactions_before = write_->compactions;
  const Status status = CompactLocked(&workload);
  if (!status.ok() && write_->compactions == compactions_before) {
    // The rebuild itself failed (nothing swapped): restore the previous
    // fallback workload too. If only the checkpoint step failed, the live
    // index IS retrained, so the new workload stays.
    options_.training_workload = std::move(previous);
  }
  return status;
}

// --- Introspection --------------------------------------------------------

std::string Database::index_display_name() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return std::string(index_->name());
}

std::string Database::Describe() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return index_->Describe();
}

std::vector<std::pair<std::string, double>> Database::IndexProperties()
    const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return index_->DebugProperties();
}

size_t Database::IndexSizeBytes() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return index_->IndexSizeBytes();
}

const Table& Database::data() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return index_->data();
}

const MultiDimIndex& Database::index() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return *index_;
}

size_t Database::num_rows() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return index_->data().num_rows() - write_->delta.num_tombstones() +
         write_->delta.size();
}

size_t Database::base_rows() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return index_->data().num_rows();
}

size_t Database::pending_writes() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return write_->delta.pending();
}

size_t Database::delta_inserts() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return write_->delta.size();
}

size_t Database::delta_tombstones() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return write_->delta.num_tombstones();
}

uint64_t Database::compactions() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return write_->compactions;
}

Status Database::last_auto_compact_status() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return write_->last_auto_compact;
}

uint64_t Database::persist_epoch() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return write_->epoch;
}

std::string Database::snapshot_path() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return write_->snapshot_path;
}

bool Database::wal_attached() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return write_->wal != nullptr;
}

uint64_t Database::wal_records_committed() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  return write_->wal != nullptr ? write_->wal->records_committed() : 0;
}

Status Database::persistence_status() const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  // A detached WAL is the more severe condition (writes are refused);
  // report it first.
  if (!write_->wal_error.ok()) return write_->wal_error;
  return write_->last_checkpoint;
}

StatusOr<std::vector<Value>> Database::TryGetRow(RowId row) const {
  std::shared_lock<std::shared_mutex> lock(write_->mu);
  const Table& base = index_->data();
  std::vector<Value> values(num_dims_);
  if (static_cast<size_t>(row) < base.num_rows()) {
    for (size_t dim = 0; dim < num_dims_; ++dim) {
      values[dim] = base.Get(row, dim);
    }
  } else {
    const size_t i = static_cast<size_t>(row) - base.num_rows();
    if (i >= write_->delta.size()) {
      return Status::OutOfRange(
          "row id " + std::to_string(row) + " is past the staged rows (" +
          std::to_string(base.num_rows()) + " base + " +
          std::to_string(write_->delta.size()) +
          " staged); collected ids go stale at the next write/compaction");
    }
    for (size_t dim = 0; dim < num_dims_; ++dim) {
      values[dim] = write_->delta.Get(i, dim);
    }
  }
  return values;
}

std::vector<Value> Database::GetRow(RowId row) const {
  StatusOr<std::vector<Value>> values = TryGetRow(row);
  FLOOD_CHECK(values.ok());
  return std::move(values).value();
}

Workload Database::RecordedWorkload() const {
  std::lock_guard<std::mutex> lock(telemetry_->mu);
  return Workload(telemetry_->history);
}

// --- Telemetry ------------------------------------------------------------

QueryStats Database::cumulative_stats() const {
  std::lock_guard<std::mutex> lock(telemetry_->mu);
  return telemetry_->stats;
}

uint64_t Database::queries_run() const {
  std::lock_guard<std::mutex> lock(telemetry_->mu);
  return telemetry_->queries_run;
}

uint64_t Database::empty_queries_skipped() const {
  std::lock_guard<std::mutex> lock(telemetry_->mu);
  return telemetry_->empty_skipped;
}

uint64_t Database::slow_queries() const {
  std::lock_guard<std::mutex> lock(telemetry_->mu);
  return telemetry_->slow_queries;
}

uint64_t Database::batches_inline() const {
  std::lock_guard<std::mutex> lock(telemetry_->mu);
  return telemetry_->batches_inline;
}

void Database::SetMeanQueryNsForTest(int64_t ns) {
  telemetry_->mean_query_ns.store(ns, std::memory_order_relaxed);
}

}  // namespace flood
