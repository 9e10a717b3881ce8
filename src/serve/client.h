#ifndef FLOOD_SERVE_CLIENT_H_
#define FLOOD_SERVE_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "serve/protocol.h"

namespace flood {
namespace serve {

/// Exponential-backoff retry policy for the *idempotent, typed-retryable*
/// outcomes only: connect refusal (the server isn't up yet) and
/// kOverloaded/kShuttingDown sheds of read-only RunBatch requests. Writes
/// are NEVER retried by the client — a transport error on a write is
/// ambiguous (the server may have applied it), so retrying could duplicate
/// it; the caller must decide using its own idempotency information.
struct RetryPolicy {
  /// Total attempts including the first; 1 disables retry.
  int max_attempts = 1;
  int64_t initial_backoff_ms = 10;
  int64_t max_backoff_ms = 2000;
  double multiplier = 2.0;
  /// Each delay is scaled by a uniform factor in [1-jitter, 1+jitter].
  double jitter = 0.5;
  /// Seed for the jitter RNG (deterministic schedules in tests).
  uint64_t seed = 0x5EEDULL;
};

/// The delay before retry attempt `attempt` (1-based), in milliseconds:
/// initial_backoff_ms times multiplier^(attempt - 1), capped at
/// max_backoff_ms, then scaled by one draw from `rng` in
/// [1 - jitter, 1 + jitter] (jitter clamped to [0, 1]; negative backoffs
/// count as 0).
double BackoffDelayMs(const RetryPolicy& policy, int attempt, Rng& rng);

/// Per-operation deadlines + retry for a Client. A timeout of 0 or less
/// means "wait forever" (the pre-deadline blocking behaviour).
struct ClientOptions {
  int64_t connect_timeout_ms = 5'000;
  int64_t send_timeout_ms = 5'000;
  int64_t recv_timeout_ms = 10'000;
  RetryPolicy retry;
};

/// Small blocking client for the flood wire protocol, used by the tests,
/// the serving bench, and examples/serve_client. One socket, synchronous
/// request/response by default; the Send*/ReadBatchReply split supports
/// pipelining many requests onto the connection before reading replies
/// (which is what the server's per-connection batching amortizes).
///
/// Every operation honours the ClientOptions deadlines (the socket is
/// non-blocking internally; waits go through poll(2)), so a dead or
/// unresponsive server surfaces as Status kDeadlineExceeded instead of a
/// hang. Connect refusal surfaces as kUnavailable and is the one connect
/// failure the RetryPolicy retries.
///
/// Not thread-safe: one Client per thread.
class Client {
 public:
  /// `address` is "unix:<path>" for a Unix-domain socket or
  /// "<ipv4>:<port>" for TCP (numeric address, e.g. "127.0.0.1:7878").
  /// Retries refused connections per `options.retry`; returns the last
  /// kUnavailable when every attempt is refused, kDeadlineExceeded when
  /// the connect timeout expires (not retried: the server is reachable
  /// but slow, and hammering it won't help).
  static StatusOr<Client> Connect(const std::string& address,
                                  ClientOptions options = {});

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Round-trips a Ping; OK means the server's event loop is alive (it
  /// answers Ping even while overloaded or draining).
  Status Ping();

  /// The server's health summary (kHealth is answered inline like Ping,
  /// even while draining — that is the point of a health check).
  StatusOr<HealthResponse> Health();

  /// Executes a batch of aggregation queries server-side and returns the
  /// per-query results. Transport failures surface as a non-OK Status;
  /// application-level outcomes — including kOverloaded sheds and
  /// kShuttingDown — come back in BatchResultResponse::code. Queries are
  /// read-only, so kOverloaded/kShuttingDown replies are retried per the
  /// RetryPolicy (each attempt is a fresh request id); transport errors
  /// are not.
  StatusOr<BatchResultResponse> RunBatch(std::span<const Query> queries);

  Status Insert(const std::vector<Value>& row);
  Status InsertBatch(std::span<const std::vector<Value>> rows);
  /// Returns the number of logical rows deleted.
  StatusOr<uint64_t> Delete(const std::vector<Value>& key);

  /// The server's full metrics snapshot: every registry histogram (with
  /// buckets, sum, count, exact max) plus the flat introspection map in
  /// `entries` (serve.* counters + db.* gauges) — one round-trip for
  /// everything the Prometheus endpoint exposes, in binary.
  StatusOr<MetricsResponse> Metrics();

  // --- Pipelining ----------------------------------------------------------

  /// Enqueues one RunBatch frame without waiting for the reply. Pair each
  /// call with one ReadBatchReply(); replies must be matched by
  /// request_id, not order.
  Status SendRunBatch(uint64_t request_id, std::span<const Query> queries);

  /// Blocks (up to recv_timeout_ms) for the next RunBatch-shaped reply
  /// (kBatchResult, or a typed kError such as an overload shed, normalized
  /// into ::code).
  StatusOr<BatchResultResponse> ReadBatchReply();

 private:
  Client(int fd, const ClientOptions& options)
      : fd_(fd), options_(options), rng_(options.retry.seed) {}

  /// One connect attempt with the connect deadline applied.
  static StatusOr<Client> ConnectOnce(const std::string& address,
                                      const ClientOptions& options);

  /// Sends all of `bytes` within send_timeout_ms.
  Status WriteAll(std::string_view bytes);
  /// Waits (up to recv_timeout_ms) until one complete frame arrives, the
  /// peer closes, or the stream goes bad.
  StatusOr<Frame> ReadFrame();
  /// Sends `request`, one frame with id `id`, and reads its reply: a frame
  /// of type `expect` goes through `parse` and must echo `id`; a kError
  /// reply becomes its Status, and any other frame is Internal.
  template <typename Parse>
  auto Call(std::string_view request, uint64_t id, MessageType expect,
            Parse parse) -> decltype(parse(std::string_view()));
  /// Call() for a write: the ack's code as a Status, else its delete count.
  StatusOr<uint64_t> Write(std::string_view request, uint64_t id);
  /// Waits for `events` on fd_ until `deadline`; kDeadlineExceeded on
  /// expiry.
  Status PollFd(short events, std::chrono::steady_clock::time_point deadline,
                bool has_deadline);

  uint64_t NextId() { return next_id_++; }

  int fd_ = -1;
  uint64_t next_id_ = 1;
  FrameAssembler assembler_;
  ClientOptions options_;
  Rng rng_{0x5EEDULL};
};

}  // namespace serve
}  // namespace flood

#endif  // FLOOD_SERVE_CLIENT_H_
