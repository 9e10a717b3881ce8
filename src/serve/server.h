#ifndef FLOOD_SERVE_SERVER_H_
#define FLOOD_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/database.h"
#include "common/status.h"
#include "common/timer.h"
#include "serve/engine.h"
#include "serve/protocol.h"

namespace flood {
namespace serve {

/// Listener + runtime knobs for a Server. At least one of `uds_path` /
/// `listen_tcp` must be set.
struct ServerOptions {
  /// Unix-domain socket path ("" = no UDS listener). An existing socket
  /// file at this path is unlinked first (stale from a crashed server).
  std::string uds_path;
  /// Enables the TCP listener on `tcp_host`:`tcp_port`.
  bool listen_tcp = false;
  std::string tcp_host = "127.0.0.1";
  /// 0 = kernel-assigned; read the resolved port back via tcp_port().
  uint16_t tcp_port = 0;

  /// Accepted connections beyond this are closed immediately at accept.
  size_t max_connections = 1024;
  /// Admission control: the bounded submission queue. At most this many
  /// batch groups may be submitted-but-unanswered across all connections;
  /// RunBatch frames arriving beyond it are shed with kOverloaded instead
  /// of queueing unboundedly. Ping/Stats stay served from the event loop,
  /// so an overloaded server remains observable.
  size_t max_inflight_batches = 64;
  /// Per-connection cap on submitted-but-unanswered RunBatch frames; the
  /// excess is shed with kOverloaded (one hog can't monopolize the queue).
  size_t max_inflight_per_connection = 8;
  /// Connections idle (no bytes read or written) longer than this are
  /// closed. 0 disables the sweep.
  int64_t idle_timeout_ms = 60'000;

  /// Prometheus scrape endpoint: "host:port" (e.g. "127.0.0.1:9100",
  /// port 0 = kernel-assigned, read back via metrics_port()). "" (the
  /// default) disables it. The listener lives inside the same epoll loop
  /// as the wire protocol — no extra thread — and serves GET /metrics
  /// as text exposition v0.0.4 (one response per connection, then
  /// close). See docs/metrics.md.
  std::string metrics_addr;
};

/// Snapshot of the per-server counters (also flattened into the Stats wire
/// response and Introspect(), keys "serve.*").
struct ServerCounters {
  uint64_t connections_accepted = 0;
  uint64_t connections_active = 0;
  uint64_t connections_rejected = 0;   ///< Closed at accept: table full.
  uint64_t connections_closed_idle = 0;
  uint64_t frames_decoded = 0;
  uint64_t bad_frames = 0;             ///< Poisoned streams (CRC, magic, ...).
  uint64_t requests_shed = 0;          ///< kOverloaded + kShuttingDown sheds.
  uint64_t batches_submitted = 0;      ///< RunBatchAsync calls issued.
  uint64_t queries_executed = 0;       ///< Queries inside submitted batches.
  uint64_t writes_applied = 0;         ///< Insert/InsertBatch/Delete frames.
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t queue_depth = 0;            ///< Inflight batch groups right now.
  uint64_t queue_depth_hwm = 0;        ///< High-water mark since start.
  uint64_t loop_errors = 0;            ///< epoll_wait failures (fatal).
  uint64_t accept_failures = 0;        ///< accept4 errors (EMFILE, ...).
  uint64_t recv_errors = 0;            ///< recv errors that closed a conn.
  uint64_t send_errors = 0;            ///< send errors that closed a conn.
  uint64_t health_checks = 0;          ///< kHealth frames answered.
  uint64_t metrics_scrapes = 0;        ///< HTTP /metrics scrapes served.
};

/// Non-blocking epoll serving loop in front of one BatchEngine — a local
/// flood::Database (the common case, via Create(Database*)) or the
/// scatter-gather Router over many shards (serve/router.h); the loop is
/// identical either way.
///
/// One thread owns every socket and all connection state; query execution
/// happens behind BatchEngine::RunBatchAsync (the database's own
/// ThreadPool, or the router's shard fan-out), and execution never touches
/// a socket. A batch the database predicts cheaper than a pool round trip
/// (Database::kInlineBatchNs) runs on the loop itself, and so does every
/// batch of a pool-less engine; their completions are delivered directly
/// and the replies leave in the same send as the rest of the read burst.
/// Other completions are posted back through an eventfd. The loop's own
/// execution is bounded: at most one group per readable connection per
/// iteration, each predicted below that constant.
///
/// Per-connection batching: each time a connection becomes readable, ALL
/// complete RunBatch frames buffered on it are concatenated into ONE
/// RunBatchAsync submission (one shared-lock acquisition, one shard pass),
/// and the combined result is split back into one response frame per
/// request. This is the reader-lock amortization that makes many small
/// pipelined requests cheap.
///
/// Admission control: see ServerOptions::max_inflight_batches. Shedding
/// produces a typed kOverloaded error response; the connection stays open
/// and usable.
///
/// Drain: Shutdown() (async-signal-safe: one write to an eventfd, so it
/// can be called from a SIGTERM handler) stops accepting, sheds new
/// request frames with kShuttingDown, lets every in-flight batch finish,
/// flushes every response, closes, and Run()/the Start() thread returns.
///
/// The engine (and the Database behind it) must outlive the server and
/// must not be moved while it runs (the server holds a pointer and keeps
/// async batches in flight).
class Server {
 public:
  /// Binds and listens on the configured endpoints (no thread started
  /// yet). Errors: no listener configured, bind/listen failures, UDS path
  /// too long. This overload wraps `db` in an owned DatabaseEngine — the
  /// single-node serving path.
  static StatusOr<std::unique_ptr<Server>> Create(Database* db,
                                                  ServerOptions options);

  /// As above over any BatchEngine (e.g. a Router). The engine is not
  /// owned and must outlive the server.
  static StatusOr<std::unique_ptr<Server>> Create(BatchEngine* engine,
                                                  ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Runs the event loop on the calling thread until a drain completes
  /// (returns OK) or the loop itself fails (typed Internal with the errno,
  /// e.g. an epoll_wait failure — never a silent exit). Even on failure,
  /// in-flight batches are waited out before returning, so no completion
  /// callback can outlive the server.
  Status Run();

  /// Runs the event loop on a background thread; pair with Shutdown() +
  /// Join(). Calling Start() twice is an error (FLOOD_CHECK).
  void Start();

  /// Initiates the drain. Thread- and async-signal-safe; idempotent.
  void Shutdown();

  /// Waits for the Start() thread to finish and returns its Run() status.
  /// OK when called without a Start() thread.
  Status Join();

  /// Resolved TCP port (after Create; meaningful when listen_tcp).
  uint16_t tcp_port() const { return tcp_port_; }
  const std::string& uds_path() const { return options_.uds_path; }
  /// Resolved metrics HTTP port (after Create; meaningful when
  /// metrics_addr was set).
  uint16_t metrics_port() const { return metrics_port_; }

  /// Point-in-time counter snapshot; safe from any thread while running.
  ServerCounters counters() const;

  /// The counters as a flat key->value map ("serve.queue_depth_hwm", ...)
  /// plus the engine's gauges ("db.pending_writes", ... for a database,
  /// "router.*"/"shard<i>.*" for a router) — the same shape as the PR 5
  /// persistence telemetry and MultiDimIndex::DebugProperties, and exactly
  /// what the Stats wire request returns.
  std::vector<std::pair<std::string, double>> Introspect() const;

 private:
  struct Connection;

  /// A client RunBatch frame inside a submitted batch group: which reply
  /// id it gets and which slice of the group's combined results is its.
  struct GroupFrame {
    uint64_t request_id = 0;
    size_t offset = 0;
    size_t count = 0;
  };

  /// One finished RunBatchAsync group: delivered on the loop directly when
  /// it completed there, else posted from a worker back to the loop.
  struct Completion {
    uint64_t conn_id = 0;
    std::vector<GroupFrame> frames;
    EngineBatchResult batch;
    /// Started at SubmitGroup: elapsed at delivery is the group's
    /// end-to-end frame latency (flood_serve_frame_ns).
    Stopwatch submitted;
  };

  Server(BatchEngine* engine, std::unique_ptr<BatchEngine> owned,
         ServerOptions options);
  Status Init();

  Status Loop();
  void HandleAccept(int listener_fd);
  /// Accept-storm mitigation: on EMFILE/ENFILE-class accept failures the
  /// listeners leave the epoll set for a cooldown instead of spinning on a
  /// level-triggered event they can't clear; ResumeListeners() re-arms
  /// them once the cooldown elapses.
  void PauseListeners();
  void ResumeListeners();
  void HandleReadable(Connection* conn);
  /// Minimal HTTP/1.0-style handling for metrics-listener connections:
  /// buffer until the header terminator, answer GET / or /metrics with
  /// the Prometheus exposition, anything else with 404/405, then close.
  void HandleHttpReadable(Connection* conn);
  void HandleWritable(Connection* conn);
  void ProcessFrames(Connection* conn);
  void HandleFrame(Connection* conn, const Frame& frame,
                   std::vector<GroupFrame>* group,
                   std::vector<Query>* group_queries);
  void SubmitGroup(Connection* conn, std::vector<GroupFrame> frames,
                   std::vector<Query> queries);
  void DrainCompletions();
  /// Accounts one finished group and appends its reply frames to the
  /// connection's outbuf; returns the connection, or null when it is gone.
  /// The caller flushes. Used by DrainCompletions for pool completions and
  /// directly by the SubmitGroup callback for completions on the loop.
  Connection* Deliver(const Completion& c);
  void BeginDrain();
  void SweepIdle();
  void SendError(Connection* conn, uint64_t request_id, WireCode code,
                 std::string_view message);
  void FlushOrArm(Connection* conn);
  void CloseConnection(Connection* conn);
  /// Closes `conn` now if it is closing/draining with nothing pending.
  void MaybeFinish(Connection* conn);
  bool draining_done() const;

  BatchEngine* const engine_;
  /// Set by the Create(Database*) convenience: the DatabaseEngine adapter
  /// the server owns on the caller's behalf. engine_ points at it.
  std::unique_ptr<BatchEngine> owned_engine_;
  ServerOptions options_;

  int epoll_fd_ = -1;
  int tcp_listen_fd_ = -1;
  int uds_listen_fd_ = -1;
  int metrics_listen_fd_ = -1;  ///< Prometheus HTTP listener (optional).
  int wake_fd_ = -1;      ///< eventfd: batch completions ready.
  int shutdown_fd_ = -1;  ///< eventfd: Shutdown() was called.
  uint16_t tcp_port_ = 0;
  uint16_t metrics_port_ = 0;

  /// Event-loop-owned connection state (no locking: only Loop() touches
  /// it). `by_id_` maps the generation-safe ids completions carry.
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::unordered_map<uint64_t, Connection*> by_id_;
  uint64_t next_conn_id_ = 1;
  bool draining_ = false;
  bool loop_done_ = false;
  /// Loop-thread-owned; read by Run()/Join() only after the loop exits
  /// (synchronized by the thread join).
  Status loop_status_ = Status::OK();
  bool listeners_paused_ = false;
  std::chrono::steady_clock::time_point listener_resume_at_;

  /// The thread running Loop(): a completion callback that fires on it
  /// is delivered directly instead of through completions_. Set at the
  /// top of Loop(), before any batch is submitted.
  std::thread::id loop_thread_id_;

  /// Pool workers push, the loop (woken by wake_fd_) pops. Mutable: the
  /// drain-progress check is const.
  mutable std::mutex completions_mu_;
  std::vector<Completion> completions_;

  /// Counters are atomics: written by the loop (and completion callbacks),
  /// read by counters()/Introspect() from any thread.
  struct AtomicCounters {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_active{0};
    std::atomic<uint64_t> connections_rejected{0};
    std::atomic<uint64_t> connections_closed_idle{0};
    std::atomic<uint64_t> frames_decoded{0};
    std::atomic<uint64_t> bad_frames{0};
    std::atomic<uint64_t> requests_shed{0};
    std::atomic<uint64_t> batches_submitted{0};
    std::atomic<uint64_t> queries_executed{0};
    std::atomic<uint64_t> writes_applied{0};
    std::atomic<uint64_t> bytes_in{0};
    std::atomic<uint64_t> bytes_out{0};
    std::atomic<uint64_t> queue_depth{0};
    std::atomic<uint64_t> queue_depth_hwm{0};
    std::atomic<uint64_t> loop_errors{0};
    std::atomic<uint64_t> accept_failures{0};
    std::atomic<uint64_t> recv_errors{0};
    std::atomic<uint64_t> send_errors{0};
    std::atomic<uint64_t> health_checks{0};
    std::atomic<uint64_t> metrics_scrapes{0};
  };
  AtomicCounters counters_;

  std::thread loop_thread_;
  bool started_ = false;
};

}  // namespace serve
}  // namespace flood

#endif  // FLOOD_SERVE_SERVER_H_
