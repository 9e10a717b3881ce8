#include "serve/router.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace flood {
namespace serve {

// --- Gather ------------------------------------------------------------------

/// One routed batch in flight. Shard replies land in `parts` — disjoint
/// slots, no lock — and `pending` counts down; the thread that delivers
/// the final reply (fetch_sub returns 1) runs the merge with exclusive
/// ownership of the whole struct (the acq_rel countdown orders every
/// shard's writes before the merge reads them).
struct Router::Gather {
  std::function<void(EngineBatchResult)> on_done;
  EngineBatchResult merged;                 ///< Pre-sized, pre-kinded results.
  std::vector<std::vector<size_t>> origin;  ///< origin[s][j] = merged index.
  std::vector<EngineBatchResult> parts;     ///< Reply slot per shard.
  std::vector<size_t> active;               ///< Shards that received work.
  std::atomic<size_t> pending{0};
  Stopwatch wall;
};

Router::Router(ShardMap map,
               std::vector<std::unique_ptr<BatchEngine>> backends)
    : map_(std::move(map)), backends_(std::move(backends)) {
  FLOOD_CHECK(!backends_.empty());
  FLOOD_CHECK(backends_.size() == map_.num_shards());
  for (const auto& b : backends_) FLOOD_CHECK(b != nullptr);
  counters_.per_shard_subqueries.resize(backends_.size());
}

std::unique_ptr<Router> Router::Over(ShardedDatabase* db) {
  FLOOD_CHECK(db != nullptr);
  std::vector<std::unique_ptr<BatchEngine>> backends;
  backends.reserve(db->num_shards());
  for (size_t s = 0; s < db->num_shards(); ++s) {
    backends.push_back(std::make_unique<DatabaseEngine>(db->shard(s)));
  }
  return std::make_unique<Router>(db->shard_map(), std::move(backends));
}

// --- Scatter-gather ----------------------------------------------------------

void Router::RunBatchAsync(std::vector<Query> queries,
                           std::function<void(EngineBatchResult)> on_done) {
  const size_t num_shards = backends_.size();
  CounterAdd(counters_.batches_routed);
  CounterAdd(counters_.queries_routed, queries.size());

  auto g = std::make_shared<Gather>();
  g->on_done = std::move(on_done);
  g->merged.results.resize(queries.size());
  g->origin.resize(num_shards);
  g->parts.resize(num_shards);

  // Plan: intersect each query's sort-dim filter with the shard map.
  std::vector<std::vector<Query>> sub(num_shards);
  uint64_t sent = 0;
  uint64_t pruned = 0;
  uint64_t empties = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    EngineQueryResult& m = g->merged.results[i];
    m.kind = q.agg().kind == AggSpec::Kind::kSum ? 1 : 0;
    if (q.IsEmpty()) {
      // Answered right here: an empty range matches nothing on any shard.
      m.skipped_empty = true;
      ++empties;
      continue;
    }
    const auto [first, last] = map_.ShardsForQuery(q);
    pruned += num_shards - (last - first + 1);
    for (size_t s = first; s <= last; ++s) {
      sub[s].push_back(q);
      g->origin[s].push_back(i);
      ++sent;
      CounterAdd(counters_.per_shard_subqueries[s]);
    }
  }
  CounterAdd(counters_.subqueries_sent, sent);
  CounterAdd(counters_.subqueries_pruned, pruned);
  CounterAdd(counters_.queries_skipped_empty, empties);

  for (size_t s = 0; s < num_shards; ++s) {
    if (!sub[s].empty()) g->active.push_back(s);
  }
  if (g->active.empty()) {
    // Nothing to scatter (all queries empty, or an empty batch).
    g->merged.wall_ms = g->wall.ElapsedMillis();
    g->on_done(std::move(g->merged));
    return;
  }

  // Scatter. pending is set BEFORE any dispatch: a backend may complete
  // inline (a pool-less local shard), and its decrement must not reach
  // zero while later shards are still undispatched.
  g->pending.store(g->active.size(), std::memory_order_relaxed);
  for (const size_t s : g->active) {
    backends_[s]->RunBatchAsync(
        std::move(sub[s]), [this, g, s](EngineBatchResult part) {
          // Per-shard fan-out latency: scatter start -> this shard's reply.
          obs::GlobalRouterMetrics().fanout_ns->Record(g->wall.ElapsedNanos());
          g->parts[s] = std::move(part);
          if (g->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            Finish(g.get());
          }
        });
  }
}

void Router::Finish(Gather* g) {
  for (const size_t s : g->active) {
    EngineBatchResult& part = g->parts[s];
    const std::vector<size_t>& origin = g->origin[s];

    // Normalize sub-batch-level failures (a shard rejected or never ran
    // its whole sub-batch) into per-query codes for the queries that were
    // routed there; queries answered by other shards are untouched.
    WireCode batch_code = WireCode::kOk;
    std::string batch_message;
    if (!part.status.ok()) {
      batch_code = WireCodeFromStatus(part.status);
      batch_message = part.status.message();
    } else if (part.results.size() != origin.size()) {
      batch_code = WireCode::kInternal;
      batch_message = "shard returned " + std::to_string(part.results.size()) +
                      " results for " + std::to_string(origin.size()) +
                      " queries";
    }
    if (batch_code != WireCode::kOk) {
      CounterAdd(counters_.shard_errors);
      for (const size_t i : origin) {
        EngineQueryResult& m = g->merged.results[i];
        if (m.code == WireCode::kOk) {
          m.code = batch_code;
          m.message = batch_message;
        }
      }
      continue;
    }

    for (size_t j = 0; j < origin.size(); ++j) {
      const EngineQueryResult& er = part.results[j];
      EngineQueryResult& m = g->merged.results[origin[j]];
      if (er.code != WireCode::kOk) {
        // First failing shard wins; partial counts from other shards are
        // moot (the frame carrying this query becomes a typed error).
        if (m.code == WireCode::kOk) {
          m.code = er.code;
          m.message = er.message;
        }
        continue;
      }
      // COUNT/SUM add across shards: every row lives in exactly one.
      // Wrapping uint64 arithmetic keeps adversarial sums defined, like a
      // single database's accumulator.
      m.count += er.count;
      m.sum = static_cast<int64_t>(static_cast<uint64_t>(m.sum) +
                                   static_cast<uint64_t>(er.sum));
      // Shards ran in parallel: the slowest is the critical path.
      m.total_ns = std::max(m.total_ns, er.total_ns);
    }
  }
  g->merged.wall_ms = g->wall.ElapsedMillis();
  g->on_done(std::move(g->merged));
}

// --- Writes ------------------------------------------------------------------

Status Router::RouteKeyShard(const std::vector<Value>& key,
                             size_t* shard) const {
  if (map_.sort_dim() >= key.size()) {
    return Status::InvalidArgument(
        "row/key has " + std::to_string(key.size()) +
        " values but the shard map routes on dimension " +
        std::to_string(map_.sort_dim()));
  }
  *shard = map_.ShardForValue(key[map_.sort_dim()]);
  return Status::OK();
}

Status Router::InsertBatch(std::span<const std::vector<Value>> rows) {
  // Validate the whole batch before any shard write, naming the
  // batch-global row: rows must agree in length and reach the sort
  // dimension. A length every row shares but the table rejects fails at
  // the first shard, before anything is applied, so the router needs no
  // table arity of its own.
  std::vector<std::vector<std::vector<Value>>> parts(backends_.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != rows[0].size()) {
      return Status::InvalidArgument(
          "batch row " + std::to_string(i) + " has " +
          std::to_string(rows[i].size()) + " values, batch row 0 has " +
          std::to_string(rows[0].size()));
    }
    size_t shard = 0;
    const Status routed = RouteKeyShard(rows[i], &shard);
    if (!routed.ok()) {
      return Status::InvalidArgument("batch row " + std::to_string(i) + ": " +
                                     routed.message());
    }
    parts[shard].push_back(rows[i]);
  }
  CounterAdd(counters_.writes_routed);
  // Not atomic across shards: a shard that fails for any other reason
  // (a WAL error, a dead remote) leaves earlier shards' rows applied and
  // reports the first error.
  for (size_t s = 0; s < backends_.size(); ++s) {
    if (parts[s].empty()) continue;
    FLOOD_RETURN_IF_ERROR(backends_[s]->InsertBatch(parts[s]));
  }
  return Status::OK();
}

StatusOr<uint64_t> Router::Delete(const std::vector<Value>& key) {
  size_t shard = 0;
  FLOOD_RETURN_IF_ERROR(RouteKeyShard(key, &shard));
  CounterAdd(counters_.writes_routed);
  return backends_[shard]->Delete(key);
}

// --- Health & introspection ----------------------------------------------------

EngineHealth Router::Health() const {
  EngineHealth merged;
  merged.ready = true;
  merged.persist_poisoned = false;
  for (const auto& backend : backends_) {
    const EngineHealth h = backend->Health();
    merged.ready = merged.ready && h.ready;
    merged.persist_poisoned = merged.persist_poisoned || h.persist_poisoned;
  }
  return merged;
}

RouterCounters Router::counters() const {
  RouterCounters c;
  LoadCounters(kRouterCounterFields, counters_, &c);
  c.per_shard_subqueries.resize(backends_.size());
  for (size_t s = 0; s < backends_.size(); ++s) {
    c.per_shard_subqueries[s] = CounterLoad(counters_.per_shard_subqueries[s]);
  }
  return c;
}

std::vector<std::pair<std::string, double>> Router::Introspect() const {
  const RouterCounters c = counters();
  std::vector<std::pair<std::string, double>> entries;
  entries.emplace_back("router.num_shards",
                       static_cast<double>(backends_.size()));
  AppendFieldEntries(kRouterCounterFields, c, "router.", &entries);
  for (size_t s = 0; s < backends_.size(); ++s) {
    const std::string prefix = "shard" + std::to_string(s) + ".";
    entries.emplace_back(prefix + "subqueries",
                         static_cast<double>(c.per_shard_subqueries[s]));
    for (auto& [key, value] : backends_[s]->Introspect()) {
      entries.emplace_back(prefix + key, value);
    }
  }
  return entries;
}

// --- Remote backend ------------------------------------------------------------

namespace {

/// BatchEngine over one remote flood_serve (see MakeRemoteBackend's
/// contract in router.h). Batches run on the dedicated worker thread —
/// serve::Client is blocking and single-threaded, and the router's
/// scatter must not serialize on a slow shard from the serving loop;
/// control operations (writes, health, stats) share a second connection
/// under a mutex, called inline with the client deadlines as the bound.
class RemoteEngine : public BatchEngine {
 public:
  RemoteEngine(std::string address, ClientOptions options)
      : address_(std::move(address)), options_(options) {
    worker_ = std::thread([this] { WorkerLoop(); });
  }

  ~RemoteEngine() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    worker_.join();
  }

  void RunBatchAsync(std::vector<Query> queries,
                     std::function<void(EngineBatchResult)> on_done) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!stopping_) {
        tasks_.push_back({std::move(queries), std::move(on_done)});
        cv_.notify_one();
        return;
      }
    }
    // Stopped: still honour the callback contract.
    on_done(FailAll(queries.size(), WireCode::kUnavailable,
                    "backend is shutting down"));
  }

  Status InsertBatch(std::span<const std::vector<Value>> rows) override {
    std::lock_guard<std::mutex> lock(control_mu_);
    FLOOD_RETURN_IF_ERROR(EnsureControlLocked());
    const Status status = control_->InsertBatch(rows);
    MaybePoisonControlLocked(status);
    return status;
  }

  StatusOr<uint64_t> Delete(const std::vector<Value>& key) override {
    std::lock_guard<std::mutex> lock(control_mu_);
    FLOOD_RETURN_IF_ERROR(EnsureControlLocked());
    StatusOr<uint64_t> deleted = control_->Delete(key);
    MaybePoisonControlLocked(deleted.status());
    return deleted;
  }

  EngineHealth Health() const override {
    EngineHealth h;
    std::lock_guard<std::mutex> lock(control_mu_);
    if (!EnsureControlLocked().ok()) {
      h.ready = false;  // Unreachable shard: not ready, routes away.
      return h;
    }
    StatusOr<HealthResponse> resp = control_->Health();
    MaybePoisonControlLocked(resp.status());
    if (!resp.ok()) {
      h.ready = false;
      return h;
    }
    h.ready = resp->ready;
    h.persist_poisoned = resp->persist_poisoned;
    return h;
  }

  std::vector<std::pair<std::string, double>> Introspect() const override {
    std::lock_guard<std::mutex> lock(control_mu_);
    if (EnsureControlLocked().ok()) {
      StatusOr<MetricsResponse> metrics = control_->Metrics();
      MaybePoisonControlLocked(metrics.status());
      if (metrics.ok()) return std::move(metrics->entries);
    }
    return {{"unreachable", 1.0}};
  }

 private:
  struct Task {
    std::vector<Query> queries;
    std::function<void(EngineBatchResult)> on_done;
  };

  static EngineBatchResult FailAll(size_t n, WireCode code,
                                   std::string_view message) {
    EngineBatchResult out;
    out.results.resize(n);
    for (EngineQueryResult& r : out.results) {
      r.code = code;
      r.message = std::string(message);
    }
    return out;
  }

  void WorkerLoop() {
    for (;;) {
      Task task;
      bool stopping = false;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
        stopping = stopping_;
        if (tasks_.empty()) return;  // stopping_ must be true here.
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      // A task that was already queued when Stop hit is answered with a
      // typed error instead of a blocking RPC — the drain must not wait on
      // a dead shard's deadlines.
      task.on_done(stopping
                       ? FailAll(task.queries.size(), WireCode::kUnavailable,
                                 "backend is shutting down")
                       : Execute(std::move(task.queries)));
    }
  }

  EngineBatchResult Execute(std::vector<Query> queries) {
    if (!batch_client_) {
      StatusOr<Client> client = Client::Connect(address_, options_);
      if (!client.ok()) {
        return FailAll(queries.size(), WireCode::kUnavailable,
                       client.status().message());
      }
      batch_client_.emplace(std::move(*client));
    }
    StatusOr<BatchResultResponse> resp = batch_client_->RunBatch(queries);
    if (!resp.ok()) {
      // Transport-level failure: the stream state is unknown — reconnect
      // on the next batch rather than risking desynchronized frames.
      batch_client_.reset();
      return FailAll(queries.size(), WireCodeFromStatus(resp.status()),
                     resp.status().message());
    }
    if (resp->code != WireCode::kOk) {
      // Typed shard-level reply (kOverloaded, kShuttingDown, ...): the
      // connection is fine, the shard just refused this sub-batch.
      return FailAll(queries.size(), resp->code, resp->message);
    }
    if (resp->results.size() != queries.size()) {
      batch_client_.reset();
      return FailAll(queries.size(), WireCode::kInternal,
                     "shard returned " + std::to_string(resp->results.size()) +
                         " results for " + std::to_string(queries.size()) +
                         " queries");
    }
    EngineBatchResult out;
    out.wall_ms = resp->server_wall_ms;
    out.results = std::vector<EngineQueryResult>(resp->results.begin(),
                                                 resp->results.end());
    return out;
  }

  Status EnsureControlLocked() const {
    if (control_) return Status::OK();
    StatusOr<Client> client = Client::Connect(address_, options_);
    if (!client.ok()) return client.status();
    control_.emplace(std::move(*client));
    return Status::OK();
  }

  /// Drops the control connection after transport-shaped failures (the
  /// reply stream may be desynchronized); typed application errors keep
  /// it.
  void MaybePoisonControlLocked(const Status& status) const {
    if (status.ok()) return;
    if (status.code() == StatusCode::kUnavailable ||
        status.code() == StatusCode::kDeadlineExceeded ||
        status.code() == StatusCode::kInternal) {
      control_.reset();
    }
  }

  const std::string address_;
  const ClientOptions options_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> tasks_;
  bool stopping_ = false;
  std::thread worker_;
  /// Worker-thread-owned; no lock needed.
  std::optional<Client> batch_client_;

  mutable std::mutex control_mu_;
  mutable std::optional<Client> control_;
};

}  // namespace

std::unique_ptr<BatchEngine> MakeRemoteBackend(std::string address,
                                               ClientOptions options) {
  return std::make_unique<RemoteEngine>(std::move(address), options);
}

}  // namespace serve
}  // namespace flood
