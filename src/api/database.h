#ifndef FLOOD_API_DATABASE_H_
#define FLOOD_API_DATABASE_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/index_options.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/delta_buffer.h"
#include "persist/wal.h"
#include "query/multidim_index.h"
#include "query/query.h"
#include "query/query_stats.h"
#include "query/workload.h"
#include "storage/table.h"

namespace flood {

/// Typed result of one query through the Database facade.
struct QueryResult {
  enum class Kind { kCount, kSum, kRows };

  Kind kind = Kind::kCount;
  uint64_t count = 0;          ///< Matching rows (always populated).
  int64_t sum = 0;             ///< Populated when kind == kSum.
  std::vector<RowId> rows;     ///< Populated when kind == kRows (storage
                               ///< order of the index; set semantics).
  QueryStats stats;            ///< Per-query counters and timings.
  bool skipped_empty = false;  ///< Short-circuited by Query::IsEmpty —
                               ///< zero result, index never touched.
};

/// Result of a batched execution: per-query results plus the aggregate
/// statistics the benches report (latency distribution, QPS, scan
/// overhead, ...). `results[i]` always corresponds to `queries[i]`,
/// regardless of how many threads executed the batch.
struct BatchResult {
  std::vector<QueryResult> results;
  QueryStats stats;         ///< Merged over executed (non-empty) queries.
  size_t empty_skipped = 0; ///< Queries short-circuited by Query::IsEmpty.
  double wall_ms = 0.0;     ///< End-to-end batch wall time (QPS basis).
  /// Batch-level validation outcome. A query whose arity doesn't match the
  /// table fails the whole batch *before any worker starts*: `status` is
  /// the error and `results` stays empty.
  Status status = Status::OK();

  size_t attempted() const { return results.size(); }
  size_t executed() const { return results.size() - empty_skipped; }

  /// Mean latency per *attempted* query: summed per-query execution time
  /// over every query in the batch, including empty-skipped ones (which
  /// cost ~nothing). With num_threads > 1 the numerator is CPU time
  /// across workers, so this does NOT equal wall_ms / size() — compare
  /// wall-clock throughput via Qps() instead.
  double AvgLatencyMs() const {
    if (results.empty()) return 0.0;
    return static_cast<double>(stats.total_ns) /
           static_cast<double>(results.size()) / 1e6;
  }

  /// Mean latency per *executed* query: same numerator over only the
  /// queries that reached the index. >= AvgLatencyMs whenever the batch
  /// contained empty queries; use this one to compare index performance.
  double AvgExecutedLatencyMs() const {
    if (executed() == 0) return 0.0;
    return static_cast<double>(stats.total_ns) /
           static_cast<double>(executed()) / 1e6;
  }

  /// Nearest-rank latency percentile (p in (0, 100]) over executed
  /// queries' end-to-end times; empty-skipped queries are excluded.
  /// Computed through obs::HistogramData (the process-wide histogram
  /// type), so the readout is the upper bound of the log-linear bucket
  /// holding the rank — within 25% of the exact-sort value by
  /// construction, and p >= 100 is the exact maximum. Every percentile
  /// reader in the repo (this, the serving metrics, bench_serving) now
  /// shares that one implementation.
  double LatencyPercentileMs(double p) const;

  double P50LatencyMs() const { return LatencyPercentileMs(50.0); }
  double P95LatencyMs() const { return LatencyPercentileMs(95.0); }
  double P99LatencyMs() const { return LatencyPercentileMs(99.0); }

  /// Aggregate throughput: attempted queries per second of batch wall time
  /// (so it reflects parallel speedup, unlike the per-query latencies).
  double Qps() const {
    if (wall_ms <= 0.0) return 0.0;
    return static_cast<double>(results.size()) / (wall_ms / 1e3);
  }
};

/// How durable an acknowledged write is when a WAL is configured
/// (DatabaseOptions::wal_path).
enum class Durability {
  /// One write() per commit, no fsync: acknowledged writes survive
  /// process death (crash, SIGKILL) but not OS/power failure.
  kAsync,
  /// write() + fsync() per commit: acknowledged writes also survive
  /// OS/power failure. Group commit keeps this to one fsync per
  /// Insert/InsertBatch/Delete call, not per record.
  kSync,
};

/// How Database::Open builds its index and executes batches.
struct DatabaseOptions {
  /// Registry key ("flood", "kdtree", "rtree", "grid_file", "zorder",
  /// "octree", "ubtree", "clustered", "full_scan", or an alias).
  std::string index_name = "flood";
  /// Forwarded to the index factory (page sizes, flatten mode, ...).
  IndexOptions index_options;
  /// Training workload: Flood learns its layout from it, baselines use it
  /// for their tuning knobs (sort-dimension selection, dimension ordering
  /// by selectivity), and SUM-aggregated dimensions get prefix-sum side
  /// columns. Without it every index falls back to workload-free defaults.
  std::optional<Workload> training_workload;
  /// Row-sample size used for selectivity estimates at build time.
  size_t sample_size = 20'000;
  uint64_t sample_seed = 7;
  /// Worker threads for RunBatch: 1 (default) executes serially on the
  /// calling thread — bit-for-bit the pre-threading path; 0 sizes the pool
  /// to hardware_concurrency; N > 1 uses a fixed pool of N workers.
  /// Results and merged stats are identical at every setting (only the
  /// timing fields vary run to run). With a pool, a batch predicted cheap
  /// still runs on the calling thread (see Database::RunBatch).
  size_t num_threads = 1;
  /// Online-write compaction policy (§8): when > 0, a write that leaves
  /// more than `auto_retrain_fraction * base rows` staged writes (buffered
  /// inserts + tombstones) triggers an automatic compaction — the delta is
  /// drained into a fresh table, the layout is relearned from the recorded
  /// workload (falling back to training_workload), and the rebuilt index
  /// is swapped in. 0 disables; writes then stage until Compact()/Retrain()
  /// is called explicitly. The triggering write holds the exclusive side
  /// of the delta seam for the rebuild, so queries issued meanwhile wait.
  double auto_retrain_fraction = 0.0;
  /// Capacity of the recorded-query ring that auto/explicit compaction
  /// retrains on (most recent executed queries win). 0 disables recording,
  /// so compaction falls back to the Open-time training workload.
  size_t workload_history = 256;
  /// Write-ahead log for durable writes ("" = none). Every
  /// Insert/InsertBatch/Delete appends its records here *before* mutating
  /// the delta buffer; on reopen (same table, or the pairing snapshot) the
  /// intact tail is replayed, so no acknowledged write is lost. An
  /// existing file at this path is validated against the database's
  /// checkpoint epoch — see src/persist/README.md for the recovery rules.
  std::string wal_path;
  /// Crash-durability level of WAL commits (meaningless without wal_path).
  Durability durability = Durability::kAsync;
  /// Slow-query tracing: a query whose end-to-end time exceeds this many
  /// nanoseconds emits one structured log line with its stage breakdown
  /// (plan/scan/delta/refine ns) and zone-map/SIMD counters, and bumps
  /// slow_queries() (`db.slow_queries`). 0 (default) disables.
  int64_t slow_query_ns = 0;
  /// Where slow-query lines go; null logs to stderr. Must be callable
  /// from pool workers (it runs on whichever thread executed the query)
  /// and must not call back into this database.
  std::function<void(const std::string&)> slow_query_log;
};

/// The front door of the library: owns a table and one index over it, and
/// executes queries with the visitor wiring hidden behind typed results.
///
///   auto db = Database::Open(std::move(table),
///                            {.index_name = "flood",
///                             .training_workload = train});
///   if (!db.ok()) { ... }
///   QueryResult r = db->Run(QueryBuilder(3).Range(0, lo, hi).Sum(2).Build());
///
/// Adding an index or enumerating all of them goes through IndexRegistry;
/// nothing above this layer names a concrete index type.
///
/// Online writes (§8): Insert/InsertBatch stage rows in a DeltaBuffer in
/// front of the immutable built index; Delete records tombstones against
/// base rows (and erases matching staged inserts). Every query merges the
/// staged writes with the base index's result — staged rows are filtered
/// through the same predicate, tombstoned base matches are subtracted —
/// so reads are never stale. Compact()/Retrain() (or the automatic
/// auto_retrain_fraction policy) drain the delta into a fresh table,
/// relearn the layout, and atomically swap the rebuilt index.
///
/// Thread safety: reads and writes are separated by a reader-writer seam
/// on the delta. Queries (Run/Collect/RunBatch workers) take a shared
/// lock for the duration of one query; Insert/Delete/Compact/Retrain take
/// the exclusive lock. The built index itself stays immutable between
/// compactions — MultiDimIndex::Execute remains const and re-entrant, so
/// concurrent readers share it with no further synchronization — and a
/// compaction holds the exclusive lock while it rebuilds, so in-flight
/// queries always see a consistent (index, delta) pair. Telemetry folds
/// are mutex-guarded (once per Run / once per batch, never per
/// worker-query).
class Database {
 public:
  /// Builds the chosen index over `table`; the index keeps its own
  /// clustered copy, so the caller's table is not retained. Errors:
  /// unknown index name, factory option errors, and index Build failures
  /// (e.g. the Grid File directory budget on skewed data).
  static StatusOr<Database> Open(const Table& table,
                                 DatabaseOptions options = {});

  /// Opens a database from a snapshot written by Save(): restores the
  /// base table (bit-exact column pages, index storage order), rebuilds
  /// the index with the snapshot's *pinned layout* — skipping the layout
  /// optimizer, the expensive part of a cold Open — restores the staged
  /// delta, and (with options.wal_path) replays the WAL tail.
  ///
  /// Structural knobs come from the snapshot: index_name, index_options
  /// (caller-set keys override individually), the layout, sample
  /// size/seed, and the training workload (unless the caller passes one).
  /// Runtime knobs come from `options`: num_threads, wal_path, durability,
  /// auto_retrain_fraction, workload_history.
  ///
  /// `path` becomes this database's checkpoint target: Compact()/Retrain()
  /// (and auto-compaction) re-snapshot it and truncate the WAL.
  static StatusOr<Database> Open(const std::string& snapshot_path,
                                 DatabaseOptions options = {});

  Database(Database&&) = default;
  Database& operator=(Database&&) = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Executes one aggregation query (COUNT or SUM per `query.agg()`) over
  /// the base index plus the staged writes. Empty-range queries
  /// short-circuit to a zero result without touching the index. Returns
  /// InvalidArgument when the query's dimensionality doesn't match the
  /// table.
  StatusOr<QueryResult> TryRun(const Query& query);

  /// Executes `query` and returns the matching row ids (kind == kRows).
  /// Ids below base_rows() refer to the index's storage order (rows of
  /// data()); ids >= base_rows() address staged inserts — resolve either
  /// kind with GetRow(). Tombstoned base rows are suppressed. The ids are
  /// a snapshot: the next Delete or compaction (explicit or automatic)
  /// re-numbers staged rows, and a compaction re-clusters base rows too —
  /// resolve ids before the next write, or after an explicit Compact().
  /// Returns InvalidArgument on a dimensionality mismatch.
  StatusOr<QueryResult> TryCollect(const Query& query);

  /// Convenience wrappers for callers that construct queries with the
  /// table's arity by design: as TryRun/TryCollect but a dimensionality
  /// mismatch aborts via FLOOD_CHECK instead of returning an error.
  QueryResult Run(const Query& query);
  QueryResult Collect(const Query& query);

  /// A batch predicted to cost less than this runs on the calling thread
  /// instead of the pool: about one pool round trip (task handoff, worker
  /// wake, completion back to the submitter). See RunBatch.
  static constexpr int64_t kInlineBatchNs = 20'000;

  /// Runs the batch and returns per-query results plus aggregate stats:
  /// the calling thread waits on the same execution path as
  /// RunBatchAsync. `results[i]` always matches `queries[i]`. Arity
  /// mismatches fail the whole batch (BatchResult::status) before any
  /// shard starts. Must not be called from a task on this database's pool.
  ///
  /// One dispatch rule serves this and both RunBatchAsync flavors. The
  /// batch runs on the calling thread, as one shard, when
  ///   - there is no pool (num_threads == 1); or
  ///   - the caller waits (this RunBatch) and the batch carves into one
  ///     shard (a single query); or
  ///   - its predicted cost is below kInlineBatchNs. The prediction is the
  ///     batch size times this database's moving mean of executed-query
  ///     time. A database that has executed no batch yet has no mean and
  ///     predicts every batch expensive.
  /// Otherwise the span is sharded contiguously across the pool, one shard
  /// per worker, and per-shard stats are folded in shard order at batch
  /// end. Every inline batch counts in batches_inline().
  BatchResult RunBatch(std::span<const Query> queries);
  BatchResult RunBatch(const Workload& workload);

  /// Submits the batch and returns; the future is fulfilled with exactly
  /// the BatchResult a synchronous RunBatch of the same span would have
  /// produced — same deterministic shard-order stats merge, same telemetry
  /// fold. Dispatch follows RunBatch's rule: a batch that runs inline
  /// (no pool, or predicted cheap) has its future ready on return;
  /// otherwise the last pool worker to finish fulfils it. The queries are
  /// copied when they go to the pool, so the caller's span may die as
  /// soon as this returns.
  ///
  /// Concurrency: async batches interleave freely with each other and with
  /// Run/Collect/Insert/Delete/Compact — each shard takes the shared side
  /// of the delta seam like any query, so a batch submitted before a
  /// compaction may observe the index either side of the swap, but never a
  /// torn state.
  ///
  /// Lifetime: the Database must not be destroyed or moved while async
  /// batches are in flight (the pool drains at destruction, but the shards
  /// dereference this object — wait on or drop your futures first; see
  /// also the serving tier's drain in src/serve/server.h).
  std::future<BatchResult> RunBatchAsync(std::span<const Query> queries);

  /// Event-loop flavor: as RunBatchAsync, but `on_done` fires exactly once
  /// with the finished result. Which thread runs it follows the dispatch
  /// rule on RunBatch: an inline batch (no pool, or predicted cheap)
  /// calls it on the calling thread before this returns; a pool batch
  /// calls it on whichever worker finished last. The callback must not
  /// block and must not call back into batch submission of this database
  /// from a pool worker — hand the result off (e.g. write an eventfd) and
  /// return. This is the primitive the epoll server in src/serve uses to
  /// get completion wakeups without a future-polling thread; it delivers
  /// an inline completion directly on its loop.
  void RunBatchAsync(std::span<const Query> queries,
                     std::function<void(BatchResult)> on_done);

  // --- Persistence --------------------------------------------------------

  /// Writes a snapshot of the full logical state (base table in storage
  /// order, learned layout + build knobs, staged delta) to `path`,
  /// atomically — a crash mid-save leaves any previous snapshot intact.
  /// On success `path` becomes the checkpoint target for future
  /// compactions and, when a WAL is attached, the WAL is truncated (its
  /// records are folded into the snapshot). Open(path) restores without
  /// re-running the optimizer. Blocks writers and readers for the
  /// duration (exclusive side of the delta seam).
  Status Save(const std::string& path);

  /// Checkpoint epoch pairing this database with its snapshot/WAL files
  /// (bumped by every successful Save / checkpointing compaction).
  uint64_t persist_epoch() const;
  /// The checkpoint target ("" until Save() or Open(path)).
  std::string snapshot_path() const;
  /// True when a WAL is attached and acknowledging writes.
  bool wal_attached() const;
  /// Records appended + committed through this database's WAL (excludes
  /// records replayed at open).
  uint64_t wal_records_committed() const;

  /// Health of the durability machinery: OK when the last checkpoint
  /// succeeded (or none ran) and the WAL (if any) is acknowledging writes.
  /// Non-OK ("poisoned") after a failed checkpoint or a WAL detach —
  /// reads keep serving either way; see persistence_poisoned() for the
  /// boolean the serving tier reports in kHealth responses.
  Status persistence_status() const;
  bool persistence_poisoned() const { return !persistence_status().ok(); }

  // --- Writes -------------------------------------------------------------

  /// Stages one row (`row` must have num_dims() values) in the delta
  /// buffer; visible to every subsequent query. With a WAL attached, the
  /// row is appended and committed to the log *before* the delta mutates;
  /// a WAL failure returns the error and stages nothing. May trigger an
  /// automatic compaction (see DatabaseOptions::auto_retrain_fraction); a
  /// failed auto-compaction keeps the staged writes (reads stay correct)
  /// and is retried at the next threshold crossing.
  Status Insert(const std::vector<Value>& row);

  /// Stages many rows under one exclusive-lock acquisition; the
  /// auto-retrain policy is evaluated once at the end of the batch, and a
  /// WAL commits the whole batch as one group (one write/fsync).
  Status InsertBatch(std::span<const std::vector<Value>> rows);

  /// Deletes every row equal to `key` (full-tuple equality): staged
  /// inserts are erased, and matching base rows are tombstoned so queries
  /// suppress them until the next compaction removes them physically.
  /// Returns the number of logical rows deleted.
  StatusOr<size_t> Delete(const std::vector<Value>& key);

  /// Drains the staged writes into a fresh table, relearns the layout
  /// from the recorded workload (falling back to the Open-time training
  /// workload), rebuilds the index, and swaps it in. No-op writes-wise
  /// when nothing is staged (still relearns). On failure the old index
  /// AND the staged writes are left in place — no write is ever lost.
  ///
  /// With a snapshot path configured (Save() succeeded or Open(path)),
  /// a successful compaction is also the WAL truncation point: the fresh
  /// state is re-snapshotted and the log reset. A *failed* snapshot
  /// surfaces its error but loses nothing — the previous snapshot + the
  /// untruncated WAL still reproduce the exact logical state.
  Status Compact();

  /// Compaction with an explicit new training workload (layout drift,
  /// changed aggregation dims): drains the delta like Compact() but
  /// relearns from `workload`, which also becomes the fallback workload
  /// for future compactions. On failure the old index and staged writes
  /// are left in place.
  Status Retrain(const Workload& workload);

  // --- Introspection ------------------------------------------------------

  /// Canonical registry key the database was opened with.
  const std::string& index_name() const { return index_name_; }
  /// The index's self-reported display name (e.g. "RStarTree"). A copy:
  /// a view could outlive the index it points into once a compaction
  /// swaps it (current implementations return literals, future ones may
  /// not).
  std::string index_display_name() const;
  /// One-line physical-layout description (Flood: the learned grid).
  std::string Describe() const;
  /// Structural counters (leaf counts, cells, ...) from the index.
  std::vector<std::pair<std::string, double>> IndexProperties() const;
  size_t IndexSizeBytes() const;

  /// Resolved RunBatch parallelism (DatabaseOptions::num_threads with
  /// 0 already expanded to the hardware thread count).
  size_t num_threads() const { return num_threads_; }

  /// The base table in the index's storage order. Excludes staged writes.
  /// The returned reference lives inside the current index, so it is
  /// invalidated by any compaction (explicit or auto-retrain) — do not
  /// call or hold it concurrently with writes that may compact; the
  /// shared lock inside only makes the pointer read itself safe.
  const Table& data() const;

  /// Logical row count: base rows − tombstones + staged inserts.
  size_t num_rows() const;
  /// Rows in the built index's storage copy (excludes staged writes).
  size_t base_rows() const;
  size_t num_dims() const { return num_dims_; }

  /// Staged-write introspection (all consistent snapshots).
  size_t pending_writes() const;    ///< Staged inserts + tombstones.
  size_t delta_inserts() const;     ///< Staged inserted rows.
  size_t delta_tombstones() const;  ///< Tombstoned base rows.
  uint64_t compactions() const;     ///< Completed compactions/retrains.
  /// Outcome of the most recent *automatic* compaction attempt (writes
  /// swallow the error to stay correct — staged writes are kept and
  /// retried with backoff); OK when none has run or the last succeeded.
  Status last_auto_compact_status() const;

  /// One full row by the id space TryCollect reports: ids < base_rows()
  /// read the base storage copy, larger ids read the staged inserts.
  /// Ids come from the same snapshot regime as TryCollect — a Delete or
  /// compaction re-numbers them, after which a stale staged id resolves
  /// to a different row or, past the staged count, to OutOfRange. GetRow
  /// is the FLOOD_CHECK-on-error convenience, like Run vs TryRun.
  StatusOr<std::vector<Value>> TryGetRow(RowId row) const;
  std::vector<Value> GetRow(RowId row) const;

  /// Snapshot of the recorded-query ring compaction retrains on (most
  /// recent executed queries, up to DatabaseOptions::workload_history).
  Workload RecordedWorkload() const;

  /// Escape hatch for advanced callers (kNN engine, custom visitors).
  /// Base index only: results ignore staged writes. Same lifetime caveat
  /// as data(): a compaction destroys the object behind the reference,
  /// so don't call or hold it concurrently with writes that may compact.
  const MultiDimIndex& index() const;

  // --- Telemetry ----------------------------------------------------------

  /// Counters and timings accumulated over every executed query since
  /// Open. Returned by value: the accumulator is folded under a mutex, so
  /// a snapshot is the only race-free view while batches are in flight.
  QueryStats cumulative_stats() const;
  uint64_t queries_run() const;
  uint64_t empty_queries_skipped() const;
  /// Queries slower than DatabaseOptions::slow_query_ns: one per line
  /// handed to the slow-query sink.
  uint64_t slow_queries() const;
  /// Batches that ran on the calling thread under the dispatch rule (see
  /// RunBatch), exposed as `db.batches_inline`.
  uint64_t batches_inline() const;

 private:
  /// Mutex-guarded telemetry accumulators, heap-held so Database stays
  /// movable. Folded once per Run/Collect and once per RunBatch — never
  /// per query inside a worker. Also holds the recorded-query ring that
  /// compaction retrains on.
  struct Telemetry {
    mutable std::mutex mu;
    QueryStats stats;
    uint64_t queries_run = 0;
    uint64_t empty_skipped = 0;
    uint64_t slow_queries = 0;
    uint64_t batches_inline = 0;
    /// Moving mean of executed-query total_ns over recent batches; 0 until
    /// the first batch with an executed query. Written under `mu`, read
    /// lock-free by ExecuteBatch's dispatch rule.
    std::atomic<int64_t> mean_query_ns{0};
    std::vector<Query> history;  ///< Ring of recent executed queries.
    size_t history_next = 0;     ///< Ring write cursor.
  };

  /// The write side of the reader-writer seam, heap-held so Database
  /// stays movable. `mu` shared-locks every query for its full duration
  /// and exclusive-locks every write, so the (index_, delta) pair only
  /// changes while no query is in flight.
  struct WriteState {
    explicit WriteState(size_t num_dims) : delta(num_dims) {}
    mutable std::shared_mutex mu;
    DeltaBuffer delta;
    /// Durability state (see src/persist/README.md): the WAL acknowledging
    /// writes (null = none), the checkpoint snapshot target ("" until a
    /// Save/Open(path)), and the epoch pairing snapshot and WAL files.
    std::unique_ptr<persist::WalWriter> wal;
    std::string snapshot_path;
    uint64_t epoch = 0;
    /// Non-OK after a checkpoint failed to truncate the WAL: the log on
    /// disk no longer pairs with the snapshot epoch, so writes are
    /// refused (instead of acknowledging records recovery would discard)
    /// until the database is reopened from the fresh snapshot.
    Status wal_error = Status::OK();
    /// Outcome of the most recent checkpoint attempt (SaveLocked). Non-OK
    /// poisons persistence-health reporting: reads keep serving and — when
    /// the WAL is still attached — writes stay durable, but the snapshot
    /// on disk is stale (e.g. ENOSPC mid-checkpoint), so restores pay a
    /// longer WAL replay. Cleared by the next successful checkpoint.
    Status last_checkpoint = Status::OK();
    uint64_t compactions = 0;
    /// Outcome of the most recent automatic compaction attempt; OK when
    /// none has run yet.
    Status last_auto_compact = Status::OK();
    /// Backoff after a failed auto-compaction: don't retry (each attempt
    /// is O(base rows) under the exclusive lock) until the delta has
    /// grown to this many staged writes. 0 = no backoff pending.
    size_t auto_compact_retry_at = 0;
  };

  /// Per-worker batch accumulator; folded into the BatchResult and the
  /// telemetry in shard order after the last worker finishes. Cache-line
  /// aligned so neighboring workers' per-query counter writes don't
  /// false-share.
  struct alignas(64) ShardAccum {
    QueryStats stats;
    uint64_t empty_skipped = 0;
    uint64_t slow_queries = 0;
  };

  Database(DatabaseOptions options, std::string index_name)
      : options_(std::move(options)),
        index_name_(std::move(index_name)),
        telemetry_(new Telemetry()) {}

  /// Builds an index of the configured type over `table` with `workload`
  /// as the training context.
  StatusOr<std::unique_ptr<MultiDimIndex>> BuildIndex(
      const Table& table, const Workload* workload) const;

  Status ValidateArity(const Query& query) const;

  /// Batch-level arity validation: the error names the first offending
  /// query, and the whole batch is rejected before any worker starts.
  Status ValidateBatch(std::span<const Query> queries) const;

  /// Executes one aggregation query with no telemetry side effects;
  /// const and re-entrant (the unit of work RunBatch parallelizes).
  /// Takes the shared side of the delta seam for its full duration.
  QueryResult ExecuteQuery(const Query& query) const;

  /// As ExecuteQuery, but the caller already holds the delta seam
  /// (either side) — the loop body of RunShard.
  QueryResult ExecuteQueryLocked(const Query& query) const;

  /// Folds the staged writes into an aggregate result: staged inserts
  /// matching the predicate are added, tombstoned base matches are
  /// subtracted. Caller holds the delta lock (either side).
  void MergeDeltaAggregate(const Query& query, QueryResult* result) const;

  /// Compaction core; caller holds the exclusive lock. `workload` nullptr
  /// means "recorded history, then Open-time training workload".
  Status CompactLocked(const Workload* workload);

  /// Snapshot + WAL-truncate checkpoint; caller holds the exclusive lock.
  Status SaveLocked(const std::string& path);

  /// Opens/validates/replays options_.wal_path against the current epoch
  /// and attaches the writer; exclusive access assumed (called from Open).
  Status AttachWal(const std::string& path);

  /// Applies one replayed WAL record to the delta; exclusive access
  /// assumed.
  Status ApplyWalRecordLocked(const persist::WalRecord& record);

  /// Tombstones every base row equal to `key` (exact-match probe through
  /// the immutable index); returns how many were newly tombstoned. Caller
  /// holds the exclusive lock.
  size_t TombstoneKeyLocked(const std::vector<Value>& key);

  /// Runs the auto_retrain_fraction policy after a write; caller holds
  /// the exclusive lock.
  void MaybeAutoCompactLocked();

  /// Runs queries[begin, end) into results[begin, end), accumulating into
  /// `acc`. Each worker owns one disjoint shard and one accumulator, and
  /// takes the shared side of the delta seam once for the whole shard, so
  /// the per-query hot path is synchronization-free (writers wait for the
  /// slowest in-flight shard).
  void RunShard(std::span<const Query> queries, size_t begin, size_t end,
                QueryResult* results, ShardAccum* acc) const;

  void RecordTelemetry(const Query& query, const QueryResult& result);

  /// Lock-free per-query observability fold: the process-wide latency
  /// histograms (src/obs/) plus the slow-query trace. Called once per
  /// executed query, on the thread that ran it — from RunShard's loop for
  /// batches, from RecordTelemetry for single Run/Collect. Returns whether
  /// the query was slow (a line went to the sink); the caller counts it.
  bool NoteQueryMetrics(const QueryResult& result) const;

  /// The one batch executor behind RunBatch and both RunBatchAsync
  /// flavors: validates, applies the dispatch rule documented on RunBatch
  /// (one shard on the calling thread, or contiguous near-equal shards,
  /// one per pool worker and at most one per query, each a pool task),
  /// runs each through RunShard, merges in shard order, folds telemetry
  /// once, and fires `on_done` exactly once. The queries are copied only
  /// when shards go to the pool and the caller does not wait.
  void ExecuteBatch(std::span<const Query> queries, bool caller_waits,
                    std::function<void(BatchResult)> on_done);

  /// Folds a finished batch into the cumulative telemetry, the moving
  /// mean of executed-query time and the history ring; called once per
  /// batch, by the shard that finishes last.
  void FoldBatchTelemetry(std::span<const Query> queries,
                          const BatchResult& batch, uint64_t slow_queries,
                          bool ran_inline);

  /// Appends one executed query to the history ring; caller holds the
  /// telemetry mutex.
  void RecordQueryLocked(const Query& query);

  DatabaseOptions options_;
  std::unique_ptr<MultiDimIndex> index_;
  std::string index_name_;

  size_t num_dims_ = 0;
  size_t num_threads_ = 1;
  std::unique_ptr<Telemetry> telemetry_;
  std::unique_ptr<WriteState> write_;
  /// Null when num_threads_ == 1. Declared last on purpose: ~ThreadPool
  /// drains every queued task, and RunBatchAsync shards dereference the
  /// members above — destroying the pool first keeps them alive until the
  /// last in-flight shard has run.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace flood

#endif  // FLOOD_API_DATABASE_H_
