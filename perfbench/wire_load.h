#ifndef FLOOD_PERFBENCH_WIRE_LOAD_H_
#define FLOOD_PERFBENCH_WIRE_LOAD_H_

// The load generator: one thread drives every connection to the server
// with non-blocking sockets and a busy poll (a sleeping poll adds its
// wake-up to every round trip, and with a capped number of frames in
// flight that caps throughput), so it can send on a schedule (open loop)
// or keep a fixed number of frames in flight (closed loop) while timing
// each reply.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "perfbench/harness.h"
#include "query/query.h"
#include "serve/protocol.h"

namespace flood {
namespace perfbench {

/// How a request ended. Everything but kOk counts as failed.
enum class Outcome : uint8_t {
  kPending,
  kOk,
  kShed,     ///< kOverloaded / kShuttingDown reply.
  kError,    ///< Any other typed error reply, or a malformed one.
  kWrong,    ///< Answered, but the answer failed the oracle check.
  kLate,     ///< Answered after kDeadlineNs from its intended send time.
  kMissing,  ///< Never answered (phase grace expired or connection lost).
};

/// A request's answer counts as timed out past this.
inline constexpr int64_t kDeadlineNs = 5'000'000'000;

struct Request {
  int64_t intended_ns = 0;  ///< When it was due (absolute, NowNs clock).
  int64_t done_ns = 0;
  Arrival::Op op = Arrival::Op::kRead;
  uint32_t arg = 0;
  uint8_t conn = 0;
  Outcome outcome = Outcome::kPending;
};

/// What one phase observed. Latencies are from each request's intended
/// send time; send lag is how late the generator handled an arrival.
struct PhaseStats {
  std::vector<Sample> reads;   ///< Answered OK.
  std::vector<Sample> writes;  ///< Acknowledged OK.
  std::vector<double> send_lag_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;  ///< Oracle mismatches among `failed`.
  double seconds = 0;  ///< Length of the window requests were issued in.
};

/// How requests are encoded and checked.
struct Traffic {
  /// Read queries by pool index.
  const std::vector<Query>* pool = nullptr;
  /// The row an insert ordinal writes (a delete removes the same row).
  std::function<std::vector<Value>(uint32_t)> write_row;
  /// True when a read reply's single result is acceptable.
  std::function<bool(const Request&, const serve::WireQueryResult&)> check_read;
};

class WireLoad {
 public:
  /// Opens `conns` connections to the server's Unix socket at `uds_path`.
  static StatusOr<std::unique_ptr<WireLoad>> Connect(
      const std::string& uds_path, size_t conns, Traffic traffic);
  ~WireLoad();

  WireLoad(const WireLoad&) = delete;
  WireLoad& operator=(const WireLoad&) = delete;

  /// Sends `schedule` (offsets from now) and waits for every reply. Reads
  /// go round-robin over the connections; writes all go on connection 0,
  /// so the server applies them in schedule order. A connection never has
  /// more than the server's per-connection cap in flight; the excess waits
  /// client-side, and that wait counts in the latency.
  PhaseStats OpenLoop(const std::vector<Arrival>& schedule);

  /// Closed loop: every connection keeps the cap of single-query read
  /// frames in flight for `seconds`, each reading the pool query
  /// `next_query()` returns. The last replies land after the window.
  PhaseStats Saturate(double seconds,
                      const std::function<uint32_t()>& next_query);

  /// Inserts sent so far (all phases).
  uint64_t inserts_sent() const { return inserts_sent_; }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    serve::FrameAssembler assembler;
    size_t inflight = 0;
    std::deque<size_t> backlog;  ///< Request indices waiting for a slot.
    bool dead = false;
  };

  explicit WireLoad(Traffic traffic) : traffic_(std::move(traffic)) {}

  /// Starts a phase: fresh request table, new id range.
  void BeginPhase();
  /// Queues request `idx` on its connection.
  void Dispatch(size_t idx);
  /// Sends what fits and handles the replies that arrived.
  void Pump();
  void Encode(size_t idx, Conn* conn);
  void HandleFrame(Conn* conn, const serve::Frame& frame, int64_t now);
  void Complete(size_t idx, Outcome outcome, int64_t now);
  void KillConn(Conn* conn);
  /// Marks everything unanswered missing and folds the phase's requests,
  /// timed from `start_ns`, into `stats`.
  void EndPhase(int64_t start_ns, PhaseStats* stats);
  bool AllDone() const { return resolved_ == reqs_.size(); }

  Traffic traffic_;
  std::vector<Conn> conns_;
  size_t cap_ = 8;
  std::vector<Request> reqs_;
  size_t resolved_ = 0;
  uint64_t id_base_ = 0;
  uint64_t inserts_sent_ = 0;
};

}  // namespace perfbench
}  // namespace flood

#endif  // FLOOD_PERFBENCH_WIRE_LOAD_H_
