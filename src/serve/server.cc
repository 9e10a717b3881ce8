#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "persist/snapshot.h"

namespace flood {
namespace serve {

namespace {

constexpr size_t kReadChunk = 64 * 1024;

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

/// What an IPv4 listener's failures are called.
struct Ipv4ListenerNames {
  const char* socket;
  const char* bad_host;  ///< InvalidArgument prefix for an unparsable host.
  std::string bind;
  const char* listen;
  const char* getsockname;
};

/// Opens a non-blocking IPv4 listener on host:port (SO_REUSEADDR) and
/// returns its fd, with the bound port (the kernel's pick for port 0) in
/// *bound_port. The fd is closed again on any failure.
StatusOr<int> OpenIpv4Listener(const std::string& host, uint16_t port,
                               int backlog, const Ipv4ListenerNames& names,
                               uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK |
                                       SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno(names.socket);
  const Status status = [&]() -> Status {
    const int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      return Status::InvalidArgument(names.bad_host + host);
    }
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      return Errno("bind(" + names.bind + ")");
    }
    if (::listen(fd, backlog) < 0) return Errno(names.listen);
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                      &len) < 0) {
      return Errno(names.getsockname);
    }
    *bound_port = ntohs(addr.sin_port);
    return Status::OK();
  }();
  if (!status.ok()) {
    ::close(fd);
    return status;
  }
  return fd;
}

void BumpHwm(uint64_t& hwm_counter, uint64_t depth) {
  std::atomic_ref hwm(hwm_counter);
  uint64_t seen = hwm.load(std::memory_order_relaxed);
  while (depth > seen &&
         !hwm.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
  }
}

}  // namespace

/// All connection state is owned by the event loop thread. `dead` marks a
/// connection doomed mid-event-batch: the fd is closed and the maps erased
/// only after the whole epoll batch (and the completion drain) has been
/// processed, so a stale event or completion can never touch a recycled
/// fd's new owner.
struct Server::Connection {
  int fd = -1;
  uint64_t id = 0;
  bool is_tcp = false;
  /// Accepted on the metrics listener: speaks HTTP, not the wire protocol.
  bool is_http = false;
  std::string http_buf;  ///< Raw request bytes until the header terminator.
  FrameAssembler assembler;
  std::string outbuf;
  size_t out_pos = 0;
  /// Admitted RunBatch frames not yet answered (per-connection cap).
  size_t inflight_frames = 0;
  /// Submitted batch groups not yet completed (close barrier).
  size_t inflight_groups = 0;
  /// No further reads; close once inflight_groups == 0 and outbuf drained.
  bool closing = false;
  bool dead = false;
  uint32_t events = 0;  ///< Current epoll interest set.
  std::chrono::steady_clock::time_point last_activity;
};

Server::Server(BatchEngine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

Server::~Server() {
  if (loop_thread_.joinable()) {
    Shutdown();
    Join();
  }
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    if (conn->fd >= 0) ::close(conn->fd);
  }
  CloseListeners();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (shutdown_fd_ >= 0) ::close(shutdown_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

StatusOr<std::unique_ptr<Server>> Server::Create(Database* db,
                                                 ServerOptions options) {
  FLOOD_CHECK(db != nullptr);
  auto engine = std::make_unique<DatabaseEngine>(db);
  StatusOr<std::unique_ptr<Server>> server =
      Create(engine.get(), std::move(options));
  if (server.ok()) (*server)->owned_engine_ = std::move(engine);
  return server;
}

StatusOr<std::unique_ptr<Server>> Server::Create(BatchEngine* engine,
                                                 ServerOptions options) {
  FLOOD_CHECK(engine != nullptr);
  if (options.uds_path.empty() && !options.listen_tcp) {
    return Status::InvalidArgument(
        "server needs at least one listener (uds_path or listen_tcp)");
  }
  std::unique_ptr<Server> server(new Server(engine, std::move(options)));
  FLOOD_RETURN_IF_ERROR(server->Init());
  return server;
}

Status Server::Init() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return Errno("eventfd(wake)");
  shutdown_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (shutdown_fd_ < 0) return Errno("eventfd(shutdown)");

  FLOOD_RETURN_IF_ERROR(Watch(wake_fd_));
  FLOOD_RETURN_IF_ERROR(Watch(shutdown_fd_));

  if (options_.listen_tcp) {
    const StatusOr<int> fd = OpenIpv4Listener(
        options_.tcp_host, options_.tcp_port, 128,
        {"socket(tcp)", "bad tcp_host ",
         options_.tcp_host + ":" + std::to_string(options_.tcp_port),
         "listen(tcp)", "getsockname"},
        &tcp_port_);
    if (!fd.ok()) return fd.status();
    listeners_.push_back({*fd, /*is_tcp=*/true, /*is_http=*/false});
    FLOOD_RETURN_IF_ERROR(Watch(*fd));
  }

  if (!options_.uds_path.empty()) {
    struct sockaddr_un addr;
    if (options_.uds_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("uds_path too long: " +
                                     options_.uds_path);
    }
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK |
                                         SOCK_CLOEXEC, 0);
    if (fd < 0) return Errno("socket(unix)");
    listeners_.push_back({fd, /*is_tcp=*/false, /*is_http=*/false});
    ::unlink(options_.uds_path.c_str());  // Stale socket from a crash.
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.uds_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      return Errno("bind(" + options_.uds_path + ")");
    }
    if (::listen(fd, 128) < 0) return Errno("listen(unix)");
    FLOOD_RETURN_IF_ERROR(Watch(fd));
  }

  if (!options_.metrics_addr.empty()) {
    const size_t colon = options_.metrics_addr.rfind(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("metrics_addr needs host:port, got " +
                                     options_.metrics_addr);
    }
    const std::string host = options_.metrics_addr.substr(0, colon);
    const std::string port_str = options_.metrics_addr.substr(colon + 1);
    char* end = nullptr;
    const unsigned long port = std::strtoul(port_str.c_str(), &end, 10);
    if (end == port_str.c_str() || *end != '\0' || port > 65535) {
      return Status::InvalidArgument("bad metrics_addr port " + port_str);
    }
    const StatusOr<int> fd = OpenIpv4Listener(
        host, static_cast<uint16_t>(port), 16,
        {"socket(metrics)", "bad metrics_addr host ", options_.metrics_addr,
         "listen(metrics)", "getsockname(metrics)"},
        &metrics_port_);
    if (!fd.ok()) return fd.status();
    listeners_.push_back({*fd, /*is_tcp=*/true, /*is_http=*/true});
    FLOOD_RETURN_IF_ERROR(Watch(*fd));
    // Pre-register every layer's histograms so the first scrape already
    // exposes the full zero-valued series set (rate() works from t=0)
    // instead of families appearing as code paths first run.
    (void)obs::GlobalDbMetrics();
    (void)obs::GlobalServeMetrics();
    (void)obs::GlobalRouterMetrics();
    (void)obs::GlobalPersistMetrics();
  }
  return Status::OK();
}

Status Server::Watch(int fd) {
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    return Errno("epoll_ctl(ADD)");
  }
  return Status::OK();
}

void Server::CloseListeners() {
  for (const Listener& l : listeners_) {
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, l.fd, nullptr);
    ::close(l.fd);
    if (!l.is_tcp) ::unlink(options_.uds_path.c_str());
  }
  listeners_.clear();
}

Status Server::Run() { return Loop(); }

void Server::Start() {
  FLOOD_CHECK(!started_);
  started_ = true;
  loop_thread_ = std::thread([this] { (void)Loop(); });
}

void Server::Shutdown() {
  // Async-signal-safe: a single write(2) on an eventfd.
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(shutdown_fd_, &one, sizeof(one));
}

Status Server::Join() {
  if (loop_thread_.joinable()) loop_thread_.join();
  return loop_status_;
}

// --- Event loop ------------------------------------------------------------

Status Server::Loop() {
  loop_thread_id_ = std::this_thread::get_id();
  std::vector<int> doomed;
  while (!loop_done_) {
    int timeout_ms = -1;
    if (options_.idle_timeout_ms > 0) {
      timeout_ms = static_cast<int>(
          std::min<int64_t>(options_.idle_timeout_ms / 2 + 1, 1000));
    }
    if (draining_) timeout_ms = 100;
    if (listeners_paused_) {
      // Wake in time to re-arm the paused listeners.
      timeout_ms = timeout_ms < 0 ? 10 : std::min(timeout_ms, 10);
    }

    struct epoll_event events[64];
    const int n = failpoint::InjectedEpollWait("serve.epoll_wait", epoll_fd_,
                                               events, 64, timeout_ms);
    if (n < 0 && errno != EINTR) {
      // Unrecoverable: the loop can't watch anything anymore. Surface a
      // typed status instead of dying silently.
      CounterAdd(counters_.loop_errors);
      loop_status_ = Errno("epoll_wait");
      break;
    }

    if (listeners_paused_ &&
        std::chrono::steady_clock::now() >= listener_resume_at_) {
      ResumeListeners();
    }

    for (int i = 0; i < (n > 0 ? n : 0); ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == wake_fd_) {
        uint64_t tickets;
        while (::read(wake_fd_, &tickets, sizeof(tickets)) > 0) {
        }
        // Completions drained below, once per iteration.
        continue;
      }
      if (fd == shutdown_fd_) {
        uint64_t tickets;
        while (::read(shutdown_fd_, &tickets, sizeof(tickets)) > 0) {
        }
        BeginDrain();
        continue;
      }
      const auto listener =
          std::find_if(listeners_.begin(), listeners_.end(),
                       [fd](const Listener& l) { return l.fd == fd; });
      if (listener != listeners_.end()) {
        HandleAccept(*listener);
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end() || it->second->dead) continue;
      Connection* conn = it->second.get();
      if (ev & (EPOLLERR | EPOLLHUP)) {
        CloseConnection(conn);
        continue;
      }
      if (ev & (EPOLLIN | EPOLLRDHUP)) HandleReadable(conn);
      if (conn->dead) continue;
      if (ev & EPOLLOUT) HandleWritable(conn);
    }

    DrainCompletions();

    if (options_.idle_timeout_ms > 0) SweepIdle();

    // Bury doomed connections only after every event and completion of
    // this iteration has been dispatched, so nothing touches a recycled
    // fd.
    doomed.clear();
    for (const auto& [fd, conn] : conns_) {
      if (conn->dead) doomed.push_back(fd);
    }
    for (int fd : doomed) {
      auto it = conns_.find(fd);
      (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
      ::close(fd);
      by_id_.erase(it->second->id);
      conns_.erase(it);
      CounterDecrement(counters_.connections_active);
    }

    if (draining_ && draining_done()) loop_done_ = true;
  }

  if (!loop_status_.ok()) {
    // The loop can no longer serve sockets, but batches already on the
    // pool still reference this server through their completion callbacks
    // — wait them out (flushing whatever responses still can be flushed)
    // so the server can be destroyed safely after Run()/Join() returns.
    while (CounterLoad(counters_.queue_depth) != 0) {
      DrainCompletions();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    DrainCompletions();
  }
  return loop_status_;
}

bool Server::draining_done() const {
  if (!conns_.empty()) return false;
  if (CounterLoad(counters_.queue_depth) != 0) {
    // Batches still on the pool reference this server through their
    // completion callbacks — the drain must outlive them.
    return false;
  }
  std::lock_guard<std::mutex> lock(completions_mu_);
  return completions_.empty();
}

void Server::BeginDrain() {
  if (draining_) return;
  draining_ = true;
  CloseListeners();
  // Final read pass: requests already in a socket buffer at drain time
  // are still answered — executed if admitted, or shed with a typed
  // kShuttingDown (HandleFrame's draining_ branch). MaybeFinish (via
  // ProcessFrames) then closes each connection as soon as it has nothing
  // in flight and nothing left to flush; busy ones close when their
  // completions land.
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    if (!conn->dead) HandleReadable(conn.get());
  }
}

void Server::HandleAccept(Listener listener) {
  for (;;) {
    const int fd = failpoint::InjectedAccept4("serve.accept", listener.fd,
                                              nullptr, nullptr,
                                              SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      CounterAdd(counters_.accept_failures);
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Resource exhaustion: the pending connection stays in the backlog,
        // so a level-triggered listener would wake us right back into the
        // same failure. Shed politely by cooling the listeners down instead
        // of spinning; existing connections keep being served.
        PauseListeners();
      }
      return;
    }
    if (draining_ || conns_.size() >= options_.max_connections) {
      CounterAdd(counters_.connections_rejected);
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    conn->is_tcp = listener.is_tcp;
    conn->is_http = listener.is_http;
    conn->last_activity = std::chrono::steady_clock::now();
    conn->events = EPOLLIN | EPOLLRDHUP;
    if (conn->is_tcp) {
      // Responses are small framed messages; never wait on Nagle.
      const int one = 1;
      (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = conn->events;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    CounterAdd(counters_.connections_accepted);
    CounterAdd(counters_.connections_active);
    by_id_[conn->id] = conn.get();
    conns_[fd] = std::move(conn);
  }
}

void Server::PauseListeners() {
  if (listeners_paused_ || draining_) return;
  for (const Listener& l : listeners_) {
    (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, l.fd, nullptr);
  }
  listeners_paused_ = true;
  listener_resume_at_ =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
}

void Server::ResumeListeners() {
  if (!listeners_paused_) return;
  listeners_paused_ = false;
  // Empty after a drain, so nothing is re-armed then.
  for (const Listener& l : listeners_) (void)Watch(l.fd);
}

void Server::HandleReadable(Connection* conn) {
  // The one recv loop, for wire and metrics-listener connections alike. A
  // closing connection's reads are done: what arrives is dropped.
  bool peer_closed = false;
  char buf[kReadChunk];
  for (;;) {
    const ssize_t n =
        failpoint::InjectedRecv("serve.recv", conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      if (conn->closing) continue;
      CounterAdd(counters_.bytes_in, static_cast<uint64_t>(n));
      if (conn->is_http) {
        conn->http_buf.append(buf, static_cast<size_t>(n));
      } else {
        conn->assembler.Feed(buf, static_cast<size_t>(n));
      }
      conn->last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    if (conn->closing) return;
    CounterAdd(counters_.recv_errors);
    CloseConnection(conn);
    return;
  }
  if (conn->closing) return;
  if (conn->is_http) {
    AnswerHttp(conn, peer_closed);
    return;
  }
  ProcessFrames(conn);
  if (peer_closed && !conn->dead) {
    // The peer is gone; any response we could still produce has no reader.
    CloseConnection(conn);
  }
}

void Server::AnswerHttp(Connection* conn, bool peer_closed) {
  constexpr size_t kMaxHttpHeader = 8 * 1024;
  const size_t header_end = conn->http_buf.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    // Headers still incomplete; a peer that hung up (or blew the cap)
    // will never complete them.
    if (peer_closed || conn->http_buf.size() > kMaxHttpHeader) {
      CloseConnection(conn);
    }
    return;
  }
  const size_t line_end = conn->http_buf.find("\r\n");
  const std::string line = conn->http_buf.substr(0, line_end);
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
  const std::string method =
      sp1 == std::string::npos ? "" : line.substr(0, sp1);
  std::string path = (sp1 == std::string::npos || sp2 == std::string::npos)
                         ? ""
                         : line.substr(sp1 + 1, sp2 - sp1 - 1);
  const size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  std::string status_line;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  if (method != "GET") {
    status_line = "405 Method Not Allowed";
    body = "only GET is supported\n";
  } else if (path == "/metrics" || path == "/") {
    status_line = "200 OK";
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = obs::RenderPrometheus(obs::MetricsRegistry::Instance().SnapshotAll(),
                                 Introspect());
    CounterAdd(counters_.metrics_scrapes);
  } else {
    status_line = "404 Not Found";
    body = "try /metrics\n";
  }
  char header[256];
  std::snprintf(header, sizeof(header),
                "HTTP/1.0 %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                status_line.c_str(), content_type.c_str(), body.size());
  conn->outbuf.append(header);
  conn->outbuf.append(body);
  conn->closing = true;  // One response per connection, then close.
  FlushOrArm(conn);
  MaybeFinish(conn);
}

void Server::ProcessFrames(Connection* conn) {
  // Per-connection batching: every complete RunBatch frame buffered right
  // now joins ONE RunBatchAsync submission — one reader-lock acquisition
  // for the whole group.
  std::vector<GroupFrame> group;
  std::vector<Query> group_queries;
  Frame frame;
  for (;;) {
    const FrameAssembler::Result r = conn->assembler.Next(&frame);
    if (r == FrameAssembler::Result::kNeedMore) break;
    if (r == FrameAssembler::Result::kBad) {
      CounterAdd(counters_.bad_frames);
      SendError(conn, 0, conn->assembler.error_code(),
                conn->assembler.error());
      conn->closing = true;
      break;
    }
    CounterAdd(counters_.frames_decoded);
    HandleFrame(conn, frame, &group, &group_queries);
    if (conn->dead || conn->closing) break;
  }
  if (!group.empty()) {
    SubmitGroup(conn, std::move(group), std::move(group_queries));
  }
  if (!conn->dead) {
    FlushOrArm(conn);
    MaybeFinish(conn);
  }
}

void Server::HandleFrame(Connection* conn, const Frame& frame,
                         std::vector<GroupFrame>* group,
                         std::vector<Query>* group_queries) {
  switch (frame.type) {
    case MessageType::kPing: {
      StatusOr<RequestIdMessage> req =
          ParseRequestId(frame.type, frame.payload);
      if (!req.ok()) break;
      // Answered inline, never queued: Ping stays responsive under
      // overload and during drain — it is the liveness probe.
      AppendRequestId(MessageType::kPong, *req, &conn->outbuf);
      return;
    }
    case MessageType::kRunBatch: {
      StatusOr<RunBatchRequest> req = ParseRunBatch(frame.payload);
      if (!req.ok()) break;
      if (draining_) {
        CounterAdd(counters_.requests_shed);
        SendError(conn, req->request_id, WireCode::kShuttingDown,
                  "server is draining");
        return;
      }
      const uint64_t depth = CounterLoad(counters_.queue_depth);
      if (depth >= options_.max_inflight_batches ||
          conn->inflight_frames >= options_.max_inflight_per_connection) {
        CounterAdd(counters_.requests_shed);
        SendError(conn, req->request_id, WireCode::kOverloaded,
                  depth >= options_.max_inflight_batches
                      ? "submission queue full"
                      : "connection in-flight cap reached");
        return;
      }
      GroupFrame gf;
      gf.request_id = req->request_id;
      gf.offset = group_queries->size();
      gf.count = req->queries.size();
      group->push_back(gf);
      ++conn->inflight_frames;
      for (Query& q : req->queries) group_queries->push_back(std::move(q));
      return;
    }
    case MessageType::kInsert:
    case MessageType::kInsertBatch:
    case MessageType::kDelete:
      if (!HandleWrite(conn, frame)) break;
      return;
    case MessageType::kMetrics: {
      StatusOr<RequestIdMessage> req =
          ParseRequestId(frame.type, frame.payload);
      if (!req.ok()) break;
      // Answered inline like Ping: every registry histogram with its
      // buckets, plus the flat Introspect() map.
      MetricsResponse resp;
      resp.request_id = req->request_id;
      resp.metrics = obs::MetricsRegistry::Instance().SnapshotAll();
      resp.entries = Introspect();
      AppendMetricsResult(resp, &conn->outbuf);
      return;
    }
    case MessageType::kHealth: {
      StatusOr<RequestIdMessage> req =
          ParseRequestId(frame.type, frame.payload);
      if (!req.ok()) break;
      // Like Ping: answered inline from the loop, even while draining or
      // overloaded — health must stay observable exactly when the server
      // is unhealthy.
      CounterAdd(counters_.health_checks);
      const EngineHealth health = engine_->Health();
      HealthResponse resp;
      resp.request_id = req->request_id;
      resp.draining = draining_;
      resp.ready = !draining_ && health.ready;
      resp.persist_poisoned = health.persist_poisoned;
      resp.queue_depth = CounterLoad(counters_.queue_depth);
      resp.connections_active = CounterLoad(counters_.connections_active);
      AppendHealthResult(resp, &conn->outbuf);
      return;
    }
    default:
      // Response-typed or unknown frames from a client are a protocol
      // violation.
      break;
  }
  CounterAdd(counters_.bad_frames);
  SendError(conn, 0, WireCode::kBadFrame,
            "unparseable or unexpected frame (type " +
                std::to_string(static_cast<int>(frame.type)) + ")");
  conn->closing = true;
}

bool Server::HandleWrite(Connection* conn, const Frame& frame) {
  // A kInsert row is applied as a one-row batch, and a kDelete key is the
  // one row it names.
  uint64_t request_id = 0;
  std::vector<std::vector<Value>> rows;
  if (frame.type == MessageType::kInsertBatch) {
    StatusOr<InsertBatchRequest> req = ParseInsertBatch(frame.payload);
    if (!req.ok()) return false;
    request_id = req->request_id;
    rows = std::move(req->rows);
  } else if (frame.type == MessageType::kInsert) {
    StatusOr<InsertRequest> req = ParseInsert(frame.payload);
    if (!req.ok()) return false;
    request_id = req->request_id;
    rows.push_back(std::move(req->row));
  } else {
    StatusOr<DeleteRequest> req = ParseDelete(frame.payload);
    if (!req.ok()) return false;
    request_id = req->request_id;
    rows.push_back(std::move(req->key));
  }
  WriteAckResponse ack;
  ack.request_id = request_id;
  if (draining_) {
    ack.code = WireCode::kShuttingDown;
    ack.message = "server is draining";
    CounterAdd(counters_.requests_shed);
  } else {
    Status status;
    if (frame.type == MessageType::kDelete) {
      StatusOr<uint64_t> deleted = engine_->Delete(rows[0]);
      status = deleted.status();
      if (deleted.ok()) ack.deleted = *deleted;
    } else {
      status = engine_->InsertBatch(rows);
    }
    ack.code = WireCodeFromStatus(status);
    ack.message = status.message();
    CounterAdd(counters_.writes_applied);
  }
  AppendWriteAck(ack, &conn->outbuf);
  return true;
}

void Server::SubmitGroup(Connection* conn, std::vector<GroupFrame> frames,
                         std::vector<Query> queries) {
  CounterAdd(counters_.batches_submitted);
  CounterAdd(counters_.queries_executed, queries.size());
  obs::GlobalServeMetrics().batch_queries->Record(
      static_cast<int64_t>(queries.size()));
  BumpHwm(counters_.queue_depth_hwm, CounterAdd(counters_.queue_depth));
  ++conn->inflight_groups;

  const uint64_t conn_id = conn->id;
  const Stopwatch submitted;  // Group frame latency is measured from here.
  // The callback runs on an engine worker (a pool thread or a router shard
  // completion) or inline on this loop thread, before RunBatchAsync
  // returns (a batch the database predicts cheap, or a pool-less engine).
  // Off the loop it only touches the completion queue and the eventfd —
  // all socket and connection state stays loop-owned.
  engine_->RunBatchAsync(
      std::move(queries), [this, conn_id, submitted,
                           frames = std::move(frames)](
                              EngineBatchResult batch) mutable {
        Completion done{conn_id, std::move(frames), std::move(batch),
                        submitted};
        if (std::this_thread::get_id() == loop_thread_id_) {
          // Still inside ProcessFrames for this connection: the replies
          // join the burst's outbuf and leave in its one FlushOrArm.
          (void)Deliver(done);
          return;
        }
        bool was_empty = false;
        {
          std::lock_guard<std::mutex> lock(completions_mu_);
          was_empty = completions_.empty();
          completions_.push_back(std::move(done));
        }
        // Wake the loop at most once per drain. DrainCompletions swaps out
        // the whole vector on every loop iteration, after that iteration's
        // eventfd read. So a push onto a non-empty vector is covered by the
        // wake of the push that made it non-empty, and a push onto an
        // empty one always writes: no completion is left without a wake.
        if (was_empty) {
          const uint64_t one = 1;
          [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
        }
      });
}

void Server::DrainCompletions() {
  std::vector<Completion> done;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    done.swap(completions_);
  }
  for (Completion& c : done) {
    Connection* conn = Deliver(c);
    if (conn == nullptr) continue;
    FlushOrArm(conn);
    MaybeFinish(conn);
  }
}

Server::Connection* Server::Deliver(const Completion& c) {
  CounterDecrement(counters_.queue_depth);
  // Group timings: end-to-end frame latency (submit -> delivered), engine
  // execution time, and their difference — the queue wait (pool +
  // completion-drain delay; about 0 for an inline group). Recorded even
  // if the connection died.
  const int64_t frame_ns = c.submitted.ElapsedNanos();
  const int64_t exec_ns = static_cast<int64_t>(c.batch.wall_ms * 1e6);
  obs::GlobalServeMetrics().frame_ns->Record(frame_ns);
  obs::GlobalServeMetrics().exec_ns->Record(exec_ns);
  obs::GlobalServeMetrics().queue_wait_ns->Record(
      frame_ns > exec_ns ? frame_ns - exec_ns : 0);
  auto it = by_id_.find(c.conn_id);
  if (it == by_id_.end() || it->second->dead) return nullptr;  // Gone.
  Connection* conn = it->second;
  FLOOD_CHECK(conn->inflight_groups > 0);
  --conn->inflight_groups;
  for (const GroupFrame& gf : c.frames) {
    FLOOD_CHECK(conn->inflight_frames > 0);
    --conn->inflight_frames;
    BatchResultResponse resp;
    resp.request_id = gf.request_id;
    resp.server_wall_ms = c.batch.wall_ms;
    if (!c.batch.status.ok()) {
      // One malformed query fails its whole group — all frames of the
      // group came from this same connection.
      resp.code = WireCodeFromStatus(c.batch.status);
      resp.message = c.batch.status.message();
    } else {
      // Partial shed at frame granularity: a multi-shard engine can fail
      // some queries (their shard shed or died) while the rest of the
      // group succeeds — a frame whose slice contains any failed query
      // becomes a typed error reply, sibling frames still get results.
      for (size_t i = 0; i < gf.count && resp.code == WireCode::kOk; ++i) {
        const EngineQueryResult& er = c.batch.results[gf.offset + i];
        if (er.code != WireCode::kOk) {
          resp.code = er.code;
          resp.message = er.message;
        }
      }
      if (resp.code == WireCode::kOk) {
        const auto slice = c.batch.results.begin() + gf.offset;
        resp.results.assign(slice, slice + gf.count);  // Sliced copies.
      }
    }
    AppendBatchResult(resp, &conn->outbuf);
  }
  return conn;
}

void Server::SendError(Connection* conn, uint64_t request_id, WireCode code,
                       std::string_view message) {
  ErrorResponse resp;
  resp.request_id = request_id;
  resp.code = code;
  resp.message = std::string(message);
  AppendError(resp, &conn->outbuf);
}

void Server::FlushOrArm(Connection* conn) {
  if (conn->dead) return;
  while (conn->out_pos < conn->outbuf.size()) {
    const ssize_t n = failpoint::InjectedSend(
        "serve.send", conn->fd, conn->outbuf.data() + conn->out_pos,
        conn->outbuf.size() - conn->out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_pos += static_cast<size_t>(n);
      CounterAdd(counters_.bytes_out, static_cast<uint64_t>(n));
      conn->last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CounterAdd(counters_.send_errors);
    CloseConnection(conn);
    return;
  }
  uint32_t want = EPOLLIN | EPOLLRDHUP;
  if (conn->out_pos < conn->outbuf.size()) {
    want |= EPOLLOUT;
  } else {
    conn->outbuf.clear();
    conn->out_pos = 0;
  }
  if (want != conn->events) {
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = want;
    ev.data.fd = conn->fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
      conn->events = want;
    }
  }
}

void Server::HandleWritable(Connection* conn) {
  FlushOrArm(conn);
  MaybeFinish(conn);
}

void Server::MaybeFinish(Connection* conn) {
  // `closing` is per-connection (protocol violation); `draining_` is the
  // server-wide shutdown — either way, close as soon as nothing is in
  // flight and every response has been flushed.
  if (conn->dead || (!conn->closing && !draining_)) return;
  if (conn->inflight_groups == 0 && conn->out_pos >= conn->outbuf.size()) {
    CloseConnection(conn);
  }
}

void Server::CloseConnection(Connection* conn) {
  // Deferred burial: see Connection::dead.
  conn->dead = true;
}

void Server::SweepIdle() {
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    if (conn->dead || conn->inflight_groups > 0) continue;
    if (now - conn->last_activity > limit) {
      CounterAdd(counters_.connections_closed_idle);
      CloseConnection(conn.get());
    }
  }
}

// --- Introspection ---------------------------------------------------------

ServerCounters Server::counters() const {
  ServerCounters c;
  LoadCounters(kServerCounterFields, counters_, &c);
  return c;
}

std::vector<std::pair<std::string, double>> Server::Introspect() const {
  std::vector<std::pair<std::string, double>> entries;
  AppendFieldEntries(kServerCounterFields, counters(), "serve.", &entries);
  // Process-wide, so once per process, not once per database.
  entries.emplace_back("persist.dir_fsync_failures",
                       static_cast<double>(persist::DirFsyncFailures()));
  // Engine gauges, same map: one Metrics request observes the whole stack
  // (db.* for a database engine, router.*/shard<i>.* for a router).
  for (auto& entry : engine_->Introspect()) {
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace serve
}  // namespace flood
