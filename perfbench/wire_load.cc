#include "perfbench/wire_load.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "serve/server.h"

namespace flood {
namespace perfbench {
namespace {

/// After the last scheduled send, how long a phase waits for replies.
constexpr int64_t kGraceNs = 5'000'000'000;

bool IsShed(serve::WireCode code) {
  return code == serve::WireCode::kOverloaded ||
         code == serve::WireCode::kShuttingDown;
}

}  // namespace

StatusOr<std::unique_ptr<WireLoad>> WireLoad::Connect(
    const std::string& uds_path, size_t conns, Traffic traffic) {
  std::unique_ptr<WireLoad> load(new WireLoad(std::move(traffic)));
  // The server's per-connection cap on unanswered frames; sending past it
  // would be shed.
  load->cap_ = serve::ServerOptions{}.max_inflight_per_connection;
  load->conns_.resize(conns);
  for (Conn& c : load->conns_) {
    c.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (c.fd < 0) return Status::Internal("socket: " + std::string(strerror(errno)));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (uds_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("socket path too long: " + uds_path);
    }
    std::memcpy(addr.sun_path, uds_path.data(), uds_path.size());
    if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return Status::Internal("connect(" + uds_path +
                              "): " + std::string(strerror(errno)));
    }
    const int flags = ::fcntl(c.fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(c.fd, F_SETFL, flags | O_NONBLOCK) != 0) {
      return Status::Internal("fcntl: " + std::string(strerror(errno)));
    }
  }
  return load;
}

WireLoad::~WireLoad() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

void WireLoad::BeginPhase() {
  id_base_ += reqs_.size() + 1;
  reqs_.clear();
  resolved_ = 0;
}

void WireLoad::Dispatch(size_t idx) {
  Conn& conn = conns_[reqs_[idx].conn];
  if (conn.dead) {
    Complete(idx, Outcome::kMissing, NowNs());
    return;
  }
  conn.backlog.push_back(idx);
}

void WireLoad::Encode(size_t idx, Conn* conn) {
  const Request& r = reqs_[idx];
  const uint64_t id = id_base_ + idx;
  switch (r.op) {
    case Arrival::Op::kRead: {
      serve::RunBatchRequest req;
      req.request_id = id;
      req.queries.push_back((*traffic_.pool)[r.arg]);
      serve::AppendRunBatch(req, &conn->out);
      break;
    }
    case Arrival::Op::kInsert: {
      serve::InsertRequest req{id, traffic_.write_row(r.arg)};
      serve::AppendInsert(req, &conn->out);
      ++inserts_sent_;
      break;
    }
    case Arrival::Op::kDelete: {
      serve::DeleteRequest req{id, traffic_.write_row(r.arg)};
      serve::AppendDelete(req, &conn->out);
      break;
    }
  }
}

void WireLoad::Complete(size_t idx, Outcome outcome, int64_t now) {
  Request& r = reqs_[idx];
  if (r.outcome != Outcome::kPending) return;
  if (outcome == Outcome::kOk && now - r.intended_ns > kDeadlineNs) {
    outcome = Outcome::kLate;
  }
  r.outcome = outcome;
  r.done_ns = now;
  ++resolved_;
}

void WireLoad::KillConn(Conn* conn) {
  if (conn->dead) return;
  conn->dead = true;
  ::close(conn->fd);
  conn->fd = -1;
  const int64_t now = NowNs();
  for (size_t idx = 0; idx < reqs_.size(); ++idx) {
    if (&conns_[reqs_[idx].conn] == conn) {
      Complete(idx, Outcome::kMissing, now);
    }
  }
  conn->backlog.clear();
  conn->inflight = 0;
}

void WireLoad::HandleFrame(Conn* conn, const serve::Frame& frame,
                           int64_t now) {
  uint64_t id = 0;
  Outcome outcome = Outcome::kError;
  switch (frame.type) {
    case serve::MessageType::kBatchResult: {
      StatusOr<serve::BatchResultResponse> resp =
          serve::ParseBatchResult(frame.payload);
      if (!resp.ok()) break;
      id = resp->request_id;
      if (IsShed(resp->code)) {
        outcome = Outcome::kShed;
      } else if (resp->code == serve::WireCode::kOk &&
                 resp->results.size() == 1 && id >= id_base_ &&
                 id - id_base_ < reqs_.size()) {
        outcome = traffic_.check_read(reqs_[id - id_base_], resp->results[0])
                      ? Outcome::kOk
                      : Outcome::kWrong;
      }
      break;
    }
    case serve::MessageType::kWriteAck: {
      StatusOr<serve::WriteAckResponse> resp =
          serve::ParseWriteAck(frame.payload);
      if (!resp.ok()) break;
      id = resp->request_id;
      if (IsShed(resp->code)) {
        outcome = Outcome::kShed;
      } else if (resp->code == serve::WireCode::kOk &&
                 id >= id_base_ && id - id_base_ < reqs_.size()) {
        // Every inserted row is unique, so its delete removes exactly one.
        const Request& r = reqs_[id - id_base_];
        outcome = r.op != Arrival::Op::kDelete || resp->deleted == 1
                      ? Outcome::kOk
                      : Outcome::kWrong;
      }
      break;
    }
    case serve::MessageType::kError: {
      StatusOr<serve::ErrorResponse> resp = serve::ParseError(frame.payload);
      if (!resp.ok()) break;
      id = resp->request_id;
      outcome = IsShed(resp->code) ? Outcome::kShed : Outcome::kError;
      break;
    }
    default:
      break;
  }
  // A past phase's request, already counted missing.
  if (id > 0 && id < id_base_) return;
  if (id < id_base_ || id - id_base_ >= reqs_.size()) {
    // A reply we cannot match poisons the connection's accounting.
    KillConn(conn);
    return;
  }
  if (conn->inflight > 0) --conn->inflight;
  Complete(id - id_base_, outcome, now);
}

void WireLoad::Pump() {
  for (Conn& conn : conns_) {
    if (conn.dead) continue;
    while (conn.inflight < cap_ && !conn.backlog.empty()) {
      const size_t idx = conn.backlog.front();
      conn.backlog.pop_front();
      Encode(idx, &conn);
      ++conn.inflight;
    }
    while (conn.out_off < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_off,
                 conn.out.size() - conn.out_off, MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        break;
      }
      KillConn(&conn);
      break;
    }
    if (conn.dead) continue;
    if (conn.out_off == conn.out.size()) {
      conn.out.clear();
      conn.out_off = 0;
    }
    char buf[64 * 1024];
    while (true) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        conn.assembler.Feed(buf, static_cast<size_t>(n));
        const int64_t now = NowNs();
        serve::Frame frame;
        serve::FrameAssembler::Result res;
        while ((res = conn.assembler.Next(&frame)) ==
               serve::FrameAssembler::Result::kFrame) {
          HandleFrame(&conn, frame, now);
          if (conn.dead) break;
        }
        if (conn.dead) break;
        if (res == serve::FrameAssembler::Result::kBad) {
          KillConn(&conn);
          break;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        break;
      }
      KillConn(&conn);  // Peer closed or the socket failed.
      break;
    }
  }
}

void WireLoad::EndPhase(int64_t start_ns, PhaseStats* stats) {
  const int64_t now = NowNs();
  for (size_t idx = 0; idx < reqs_.size(); ++idx) {
    Complete(idx, Outcome::kMissing, now);
  }
  // A reply that still comes for one of these carries an id below the next
  // phase's range and is dropped.
  for (Conn& conn : conns_) {
    conn.backlog.clear();
    conn.inflight = 0;
  }
  for (const Request& r : reqs_) {
    ++stats->attempted;
    if (r.outcome != Outcome::kOk) {
      ++stats->failed;
      if (r.outcome == Outcome::kWrong) ++stats->wrong;
      continue;
    }
    const Sample sample{static_cast<double>(r.done_ns - start_ns) / 1e9,
                        static_cast<double>(r.done_ns - r.intended_ns) / 1e6};
    (r.op == Arrival::Op::kRead ? stats->reads : stats->writes)
        .push_back(sample);
  }
}

PhaseStats WireLoad::OpenLoop(const std::vector<Arrival>& schedule) {
  BeginPhase();
  PhaseStats stats;
  reqs_.resize(schedule.size());
  size_t next_read_conn = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    Request& r = reqs_[i];
    r.op = schedule[i].op;
    r.arg = schedule[i].arg;
    if (r.op == Arrival::Op::kRead) {
      r.conn = static_cast<uint8_t>(next_read_conn);
      next_read_conn = (next_read_conn + 1) % conns_.size();
    }
  }
  const int64_t epoch = NowNs();
  for (size_t i = 0; i < schedule.size(); ++i) {
    reqs_[i].intended_ns = epoch + schedule[i].at_ns;
  }
  const int64_t last_due =
      schedule.empty() ? epoch : epoch + schedule.back().at_ns;
  size_t next = 0;
  while (true) {
    const int64_t now = NowNs();
    while (next < reqs_.size() && reqs_[next].intended_ns <= now) {
      stats.send_lag_ms.push_back(static_cast<double>(now - reqs_[next].intended_ns) / 1e6);
      Dispatch(next++);
    }
    Pump();
    if (next == reqs_.size() && AllDone()) break;
    if (now > last_due + kGraceNs) break;
  }
  stats.seconds = static_cast<double>(last_due - epoch) / 1e9;
  EndPhase(epoch, &stats);
  return stats;
}

PhaseStats WireLoad::Saturate(double seconds,
                              const std::function<uint32_t()>& next_query) {
  BeginPhase();
  PhaseStats stats;
  const int64_t start = NowNs();
  const int64_t window_end = start + static_cast<int64_t>(seconds * 1e9);
  while (true) {
    const int64_t now = NowNs();
    if (now < window_end) {
      for (size_t c = 0; c < conns_.size(); ++c) {
        Conn& conn = conns_[c];
        while (!conn.dead && conn.inflight + conn.backlog.size() < cap_) {
          Request r;
          r.intended_ns = now;
          r.arg = next_query();
          r.conn = static_cast<uint8_t>(c);
          reqs_.push_back(r);
          Dispatch(reqs_.size() - 1);
        }
      }
    } else if (AllDone() || now > window_end + kGraceNs) {
      break;
    }
    Pump();
  }
  stats.seconds = seconds;
  EndPhase(start, &stats);
  return stats;
}

}  // namespace perfbench
}  // namespace flood
