#ifndef FLOOD_SERVE_ROUTER_H_
#define FLOOD_SERVE_ROUTER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/shard_map.h"
#include "api/sharded_database.h"
#include "common/status.h"
#include "serve/client.h"
#include "serve/engine.h"

namespace flood {
namespace serve {

/// Point-in-time snapshot of the router's routing counters (flattened into
/// Introspect() under "router.*"). The pruning counters are what the
/// router bench and tests assert on: `subqueries_pruned` counts
/// (query, shard) pairs the shard map proved empty — work a naive
/// broadcast router would have done.
struct RouterCounters {
  uint64_t batches_routed = 0;     ///< RunBatchAsync calls planned.
  uint64_t queries_routed = 0;     ///< Queries across those batches.
  uint64_t subqueries_sent = 0;    ///< (query, shard) pairs dispatched.
  uint64_t subqueries_pruned = 0;  ///< (query, shard) pairs skipped by the map.
  uint64_t queries_skipped_empty = 0;  ///< Empty queries answered locally.
  uint64_t writes_routed = 0;      ///< Insert/InsertBatch/Delete routed.
  uint64_t shard_errors = 0;       ///< Failed sub-batches (shed/died shards).
  std::vector<uint64_t> per_shard_subqueries;  ///< Sent, by shard.
};

/// Key-range scatter-gather over N shard backends, behind the unchanged
/// wire protocol: Router is a BatchEngine, so serve::Server fronts it
/// exactly like a single Database — framing, per-connection batching,
/// admission control and drain all reuse the PR 6 loop.
///
/// Planning: each query's sort-dim filter interval is intersected with the
/// ShardMap; only shards whose range overlaps receive the query (the rest
/// are pruned — provably zero matches). Queries that do not filter the
/// sort dimension broadcast to every shard; empty queries are answered
/// locally without touching any shard.
///
/// Gathering: each shard executes its sub-batch asynchronously and the
/// replies land in preallocated per-shard slots (request_id matching is
/// the transport's job — the wire protocol's out-of-order replies and the
/// local pool's completions both end up here); the last shard to finish
/// merges, single-threaded. Merge rules: COUNT/SUM add across shards (each
/// row lives in exactly one shard), total_ns takes the max (shards ran in
/// parallel — the slowest one is the critical path), wall_ms is the
/// scatter-to-last-gather time.
///
/// Failure semantics: a shard that sheds (kOverloaded/kShuttingDown) or
/// dies (transport error -> kUnavailable) fails ONLY the queries routed to
/// it — each affected query carries the shard's code, and the server turns
/// exactly the reply frames containing those queries into typed errors
/// while sibling frames in the same group still get results. The router
/// itself never sheds; admission control stays in the front-end server.
///
/// Writes route to exactly one shard by the row's sort-dim value.
/// InsertBatch rejects a malformed batch (rows of differing lengths, or
/// too short to route) before any shard write; past that it splits per
/// shard and is not atomic across them. Health() fans out: ready iff
/// every shard is ready, poisoned if any shard is. Introspect() returns
/// router.* counters plus every shard's map under a "shard<i>." prefix.
///
/// Thread safety: RunBatchAsync may be called from one thread at a time
/// (the serving loop); completions run concurrently with it. counters(),
/// Health() and Introspect() are safe from any thread.
class Router : public BatchEngine {
 public:
  /// Backends must be non-null, one per shard of `map`, ordered by shard
  /// index. The router owns them.
  Router(ShardMap map, std::vector<std::unique_ptr<BatchEngine>> backends);

  /// A router over the shards of an in-process ShardedDatabase (one
  /// DatabaseEngine per shard): the in-process path for sharded reads and
  /// writes. The database must outlive the router.
  static std::unique_ptr<Router> Over(ShardedDatabase* db);

  // --- BatchEngine ----------------------------------------------------------

  void RunBatchAsync(std::vector<Query> queries,
                     std::function<void(EngineBatchResult)> on_done) override;
  Status Insert(const std::vector<Value>& row) override;
  Status InsertBatch(std::span<const std::vector<Value>> rows) override;
  StatusOr<uint64_t> Delete(const std::vector<Value>& key) override;
  EngineHealth Health() const override;
  std::vector<std::pair<std::string, double>> Introspect() const override;

  // --- Introspection ----------------------------------------------------------

  const ShardMap& shard_map() const { return map_; }
  size_t num_shards() const { return backends_.size(); }
  RouterCounters counters() const;

 private:
  /// Shared gather state for one routed batch: per-shard replies land in
  /// disjoint slots, the last finisher (atomic countdown) merges.
  struct Gather;

  /// Merges the gathered per-shard replies and fires on_done; runs on
  /// whichever thread delivered the final shard reply.
  void Finish(Gather* g);

  Status RouteKeyShard(const std::vector<Value>& key, size_t* shard) const;

  ShardMap map_;
  std::vector<std::unique_ptr<BatchEngine>> backends_;

  mutable std::atomic<uint64_t> batches_routed_{0};
  mutable std::atomic<uint64_t> queries_routed_{0};
  mutable std::atomic<uint64_t> subqueries_sent_{0};
  mutable std::atomic<uint64_t> subqueries_pruned_{0};
  mutable std::atomic<uint64_t> queries_skipped_empty_{0};
  mutable std::atomic<uint64_t> writes_routed_{0};
  mutable std::atomic<uint64_t> shard_errors_{0};
  /// Fixed-size array (atomics are not movable): one sent-count per shard.
  std::unique_ptr<std::atomic<uint64_t>[]> per_shard_subqueries_;
};

/// A BatchEngine speaking the wire protocol to one remote flood_serve
/// process — the shard leaf for a multi-process router deployment.
///
/// `address` is "unix:<path>" or "<ipv4>:<port>" (serve::Client grammar).
/// Connections are lazy: creation always succeeds, the first operation
/// connects (use Health() / `flood_router --check` to probe). Two
/// channels per backend: batches run on a dedicated worker thread (the
/// blocking client never stalls the caller), writes/health/stats go over
/// a separate mutex-guarded control connection called inline — bounded by
/// the ClientOptions deadlines. A transport error poisons the affected
/// channel's connection; the next operation reconnects. Destruction
/// answers every queued batch with kUnavailable before joining (the
/// callback contract: on_done always fires).
std::unique_ptr<BatchEngine> MakeRemoteBackend(std::string address,
                                               ClientOptions options = {});

}  // namespace serve
}  // namespace flood

#endif  // FLOOD_SERVE_ROUTER_H_
