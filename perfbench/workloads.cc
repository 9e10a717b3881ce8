#include "perfbench/workloads.h"

#include <unistd.h>

#include <atomic>
#include <span>

#include "common/rng.h"
#include "query/executor.h"
#include "serve/client.h"

namespace flood {
namespace perfbench {
namespace {

/// Database pool workers: with the event loop and the load generator this
/// fills a 4-core machine.
constexpr size_t kPoolWorkers = 2;

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return seed * 0x9E3779B97F4A7C15ULL + salt;
}

/// The dimension the training queries filter most often: the router can
/// prune shards only for queries that filter the shard key.
size_t MostFilteredDim(const Workload& train, size_t num_dims) {
  size_t best = 0;
  for (size_t d = 1; d < num_dims; ++d) {
    if (train.FilterFrequency(d) > train.FilterFrequency(best)) best = d;
  }
  return best;
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>* specs = [] {
    auto* v = new std::vector<WorkloadSpec>();
    WorkloadSpec point;
    point.name = "point-sales";
    point.dataset = "sales";
    point.rows = 150'000;
    point.kind = WorkloadKind::kOltpSingleKey;
    point.rate = 60'000;
    point.pool = 2'000;
    v->push_back(point);

    WorkloadSpec mixed;
    mixed.name = "mixed-osm";
    mixed.dataset = "osm";
    mixed.rows = 400'000;
    mixed.kind = WorkloadKind::kMixed;
    mixed.rate = 3'000;
    mixed.write_fraction = 0.1;
    mixed.pool = 1'000;
    mixed.auto_retrain_fraction = 0.0005;
    mixed.traced_writes = 1'000;
    v->push_back(mixed);

    WorkloadSpec routed;
    routed.name = "routed-sales";
    routed.dataset = "sales";
    routed.rows = 150'000;
    routed.kind = WorkloadKind::kOlapSkewed;
    routed.rate = 5'000;
    routed.shards = 2;
    routed.pool = 1'000;
    v->push_back(routed);
    return v;
  }();
  return *specs;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs in;
  const uint64_t data_seed = SubSeed(seed, 1);
  if (spec.dataset == "osm") {
    in.data = MakeOsmDataset(spec.rows, data_seed);
  } else {
    in.data = MakeSalesDataset(spec.rows, data_seed);
  }
  // Train and test are disjoint halves of one draw.
  const Workload all =
      MakeWorkload(in.data, spec.kind, 2 * spec.pool, SubSeed(seed, 2));
  auto [train, test] = all.Split(0.5, SubSeed(seed, 3));
  in.train = std::move(train);
  in.pool = test.queries();
  return in;
}

std::vector<Value> InsertedRow(const Table& table, uint64_t seed, uint32_t k) {
  Rng rng(SubSeed(seed, 0x1000 + k));
  const RowId src = static_cast<RowId>(
      rng.UniformInt(0, static_cast<int64_t>(table.num_rows()) - 1));
  std::vector<Value> row(table.num_dims());
  for (size_t d = 0; d < row.size(); ++d) row[d] = table.Get(src, d);
  row[0] = table.max_value(0) + 1 + static_cast<Value>(k);
  return row;
}

StatusOr<std::unique_ptr<Endpoint>> Endpoint::Open(const WorkloadSpec& spec,
                                                   const Table& table,
                                                   const Workload& train,
                                                   const std::string& tag) {
  std::unique_ptr<Endpoint> ep(new Endpoint());
  ep->socket_path_ = tag + ".sock";
  DatabaseOptions opts;
  opts.index_name = "flood";
  opts.training_workload = train;
  opts.num_threads = kPoolWorkers;
  if (spec.shards >= 2) {
    ShardedDatabaseOptions sopts;
    sopts.num_shards = spec.shards;
    sopts.sort_dim = MostFilteredDim(train, table.num_dims());
    sopts.shard_options = opts;
    // One thread per shard: each shard runs its sub-batch on the thread
    // that submits it.
    sopts.shard_options.num_threads = 1;
    StatusOr<ShardedDatabase> db = ShardedDatabase::Open(table, sopts);
    if (!db.ok()) return db.status();
    ep->sharded_ = std::make_unique<ShardedDatabase>(std::move(*db));
    ep->router_ = serve::Router::Over(ep->sharded_.get());
  } else {
    std::string snapshot;
    if (spec.write_fraction > 0) {
      ep->wal_path_ = tag + ".wal";
      snapshot = tag + ".snap";
      ::unlink(ep->wal_path_.c_str());
      ::unlink(snapshot.c_str());
      opts.wal_path = ep->wal_path_;
      opts.durability = Durability::kAsync;
      opts.auto_retrain_fraction = spec.auto_retrain_fraction;
      // Compactions relearn from the training split rather than from the
      // recorded queries, so the layout after them repeats for a seed.
      opts.workload_history = 0;
    }
    StatusOr<Database> db = Database::Open(table, opts);
    if (!db.ok()) return db.status();
    ep->db_ = std::make_unique<Database>(std::move(*db));
    // With a snapshot every compaction checkpoints (and truncates the WAL).
    if (!snapshot.empty()) FLOOD_RETURN_IF_ERROR(ep->db_->Save(snapshot));
  }
  serve::ServerOptions sopts;
  sopts.uds_path = ep->socket_path_;
  StatusOr<std::unique_ptr<serve::Server>> server =
      ep->router_ ? serve::Server::Create(ep->router_.get(), sopts)
                  : serve::Server::Create(ep->db_.get(), sopts);
  if (!server.ok()) return server.status();
  ep->server_ = std::move(*server);
  ep->server_->Start();
  return ep;
}

Endpoint::~Endpoint() {
  if (server_ != nullptr) {
    server_->Shutdown();
    (void)server_->Join();
  }
}

std::pair<size_t, size_t> Endpoint::ShardsFor(const Query& q) const {
  if (!sharded_) return {0, 0};
  return sharded_->shard_map().ShardsForQuery(q);
}

size_t Endpoint::TableBytes() {
  size_t bytes = 0;
  for (size_t s = 0; s < num_shards(); ++s) {
    bytes += shard(s).data().MemoryUsageBytes();
  }
  return bytes;
}

size_t Endpoint::IndexBytes() {
  size_t bytes = 0;
  for (size_t s = 0; s < num_shards(); ++s) bytes += shard(s).IndexSizeBytes();
  return bytes;
}

StatusOr<LayerTrace> TraceLayers(Endpoint* ep, serve::Client* client,
                                 const std::vector<Query>& probe, int rounds) {
  if (probe.empty() || rounds < 1) return Status::InvalidArgument("empty probe");
  const size_t n = probe.size();
  const size_t shards = ep->num_shards();
  // Sums over rounds, per query (and per query and shard). Each layer is
  // timed in a pass of its own over the probe, so every measurement finds
  // the caches as the rest of a pass left them, not warmed by the same
  // query a moment before.
  std::vector<double> wire(n, 0), engine(n, 0), rb(n * shards, 0),
      ea(n * shards, 0);
  std::vector<QueryStats> full(n * shards), base(n * shards);
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < n; ++i) {
      const int64_t t0 = NowNs();
      StatusOr<serve::BatchResultResponse> reply =
          client->RunBatch(std::span<const Query>(&probe[i], 1));
      wire[i] += static_cast<double>(NowNs() - t0);
      if (!reply.ok()) return reply.status();
      if (reply->code != serve::WireCode::kOk) {
        return Status::Internal("traced read failed: " + reply->message);
      }
    }
    if (ep->router() != nullptr) {
      for (size_t i = 0; i < n; ++i) {
        std::atomic<bool> done{false};
        const int64_t t0 = NowNs();
        ep->router()->RunBatchAsync(
            std::vector<Query>{probe[i]}, [&done](serve::EngineBatchResult) {
              done.store(true, std::memory_order_release);
            });
        while (!done.load(std::memory_order_acquire)) {
        }
        engine[i] += static_cast<double>(NowNs() - t0);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (probe[i].IsEmpty()) continue;
      const auto [first, last] = ep->ShardsFor(probe[i]);
      for (size_t s = first; s <= last; ++s) {
        const int64_t t0 = NowNs();
        const BatchResult batch =
            ep->shard(s).RunBatch(std::span<const Query>(&probe[i], 1));
        rb[i * shards + s] += static_cast<double>(NowNs() - t0);
        if (!batch.status.ok()) return batch.status;
        full[i * shards + s].Add(batch.results[0].stats);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (probe[i].IsEmpty()) continue;
      const auto [first, last] = ep->ShardsFor(probe[i]);
      for (size_t s = first; s <= last; ++s) {
        QueryStats st;
        const int64_t t0 = NowNs();
        (void)ExecuteAggregate(ep->shard(s).index(), probe[i], &st);
        ea[i * shards + s] += static_cast<double>(NowNs() - t0);
        base[i * shards + s].Add(st);
      }
    }
  }

  // Times follow each query's critical path, the slowest shard it reaches;
  // counts add up over every shard it reaches.
  double wire_ns = 0, engine_ns = 0, rb_ns = 0, ea_ns = 0;
  QueryStats crit, all;
  for (size_t i = 0; i < n; ++i) {
    wire_ns += wire[i];
    engine_ns += engine[i];
    if (probe[i].IsEmpty()) continue;
    const auto [first, last] = ep->ShardsFor(probe[i]);
    size_t c = i * shards + first;
    for (size_t s = first; s <= last; ++s) {
      const size_t k = i * shards + s;
      if (rb[k] > rb[c]) c = k;
      all.Add(base[k]);
      all.delta_rows_scanned += full[k].delta_rows_scanned;
    }
    if (ep->router() == nullptr) engine_ns += rb[c];
    rb_ns += rb[c];
    ea_ns += ea[c];
    crit.Add(base[c]);
    crit.delta_ns += full[c].delta_ns;
  }
  const double per_query = static_cast<double>(n) * rounds;
  auto us = [per_query](double ns) { return ns / per_query / 1e3; };
  auto count = [per_query](uint64_t v) { return static_cast<double>(v) / per_query; };
  LayerTrace t;
  t.wire_us = us(wire_ns);
  t.serve_self_us = us(wire_ns - engine_ns);
  t.router_self_us = ep->router() ? us(engine_ns - rb_ns) : 0;
  t.delta_us = us(static_cast<double>(crit.delta_ns));
  t.api_self_us = us(rb_ns - ea_ns) - t.delta_us;
  t.project_us = us(static_cast<double>(crit.index_ns));
  t.refine_us = us(static_cast<double>(crit.refine_ns));
  t.scan_us = us(static_cast<double>(crit.scan_ns));
  t.delta_rows = count(all.delta_rows_scanned);
  t.cells = count(all.cells_visited);
  t.points_scanned = count(all.points_scanned);
  t.points_matched = count(all.points_matched);
  t.blocks_skipped = count(all.blocks_skipped);
  t.simd_blocks = count(all.simd_blocks);
  t.unattributed = UnattributedFraction(
      t.wire_us, {t.serve_self_us, t.router_self_us, t.api_self_us, t.delta_us,
                  t.project_us, t.refine_us, t.scan_us});
  return t;
}

}  // namespace perfbench
}  // namespace flood
