#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "gov/failpoint.h"
#include "obs/trace.h"

namespace eds::net {

namespace {

Status Errno(const char* what) {
  return Status::RuntimeError(std::string(what) + ": " +
                              std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return Status::OK();
}

// EDS_FAIL_POINT returns from the *enclosing* function, so each site gets a
// tiny Status-returning wrapper the socket paths call.
Status FailAccept() {
  EDS_FAIL_POINT("net.accept");
  return Status::OK();
}
Status FailRead() {
  EDS_FAIL_POINT("net.read");
  return Status::OK();
}
Status FailWrite() {
  EDS_FAIL_POINT("net.write");
  return Status::OK();
}

// Bytes read from one connection per poller pass: poll is level-triggered,
// so a client with more queued gets the rest on the next pass, after every
// other ready connection had its turn.
constexpr size_t kReadBudgetBytes = 64 << 10;
constexpr int kListenBacklog = 64;

const char* TypeName(MsgType t) {
  switch (t) {
    case MsgType::kHello: return "HELLO";
    case MsgType::kHelloOk: return "HELLO_OK";
    case MsgType::kQuery: return "QUERY";
    case MsgType::kResult: return "RESULT";
    case MsgType::kCancel: return "CANCEL";
    case MsgType::kStats: return "STATS";
    case MsgType::kStatsResult: return "STATS_RESULT";
    case MsgType::kExec: return "EXEC";
    case MsgType::kGoodbye: return "GOODBYE";
    case MsgType::kGoodbyeOk: return "GOODBYE_OK";
    case MsgType::kError: return "ERROR";
  }
  return "?";
}

}  // namespace

Server::Server(srv::QueryService* service, const ServerOptions& options)
    : service_(service), options_(options) {}

Server::~Server() { Shutdown(true); }

Status Server::Start() {
  if (phase_.load() != Phase::kStopped) {
    return Status::InvalidArgument("server already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  auto fail = [&](Status s) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  };
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return fail(Status::InvalidArgument("bad listen host: " + options_.host));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail(Errno("bind"));
  }
  if (::listen(listen_fd_, kListenBacklog) < 0) return fail(Errno("listen"));
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen) <
      0) {
    return fail(Errno("getsockname"));
  }
  port_ = ntohs(bound.sin_port);
  Status nb = SetNonBlocking(listen_fd_);
  if (!nb.ok()) return fail(nb);
  if (::pipe(wake_fds_) != 0) return fail(Errno("pipe"));
  (void)SetNonBlocking(wake_fds_[0]);
  (void)SetNonBlocking(wake_fds_[1]);
  phase_.store(Phase::kServing);
  poller_ = std::thread(&Server::PollLoop, this);
  return Status::OK();
}

void Server::Shutdown(bool drain) {
  // From here on the poller stops accepting and new QUERY frames are
  // refused with a failed RESULT, so pending_total_ only decreases: a
  // client that keeps pipelining cannot hold the drain open.
  Phase serving = Phase::kServing;
  if (!phase_.compare_exchange_strong(serving, Phase::kDraining)) return;
  WakePoller();
  if (drain) {
    // Connections stay open while their admitted queries finish; the
    // RESULT frames are still delivered. The wait is bounded by
    // drain_timeout_ms — anything still pending afterwards is cancelled
    // by the stop path below.
    std::unique_lock<std::mutex> dlock(drain_mu_);
    (void)drain_cv_.wait_for(
        dlock, std::chrono::milliseconds(options_.drain_timeout_ms),
        [&] { return pending_total_.load() == 0; });
  }
  // Ends the poller loop and aborts any send still parked on a slow
  // reader, so the poller join below can never wait behind one.
  phase_.store(Phase::kStopping);
  WakePoller();
  if (poller_.joinable()) poller_.join();
  // The poller's exit path cancelled whatever was still pending (the
  // non-drain case); completion callbacks reference this object, so wait
  // them out before returning.
  {
    std::unique_lock<std::mutex> dlock(drain_mu_);
    drain_cv_.wait(dlock, [&] { return pending_total_.load() == 0; });
  }
  for (int& fd : wake_fds_) {
    ::close(fd);
    fd = -1;
  }
  phase_.store(Phase::kStopped);
}

size_t Server::active_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conns_.size();
}

size_t Server::pending_queries() const { return pending_total_.load(); }

ServerStats Server::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Server::ExportMetrics(obs::MetricsRegistry* registry) const {
  ServerStats s;
  size_t active = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
    active = conns_.size();
  }
  registry->Counter("net.accepted", s.accepted);
  registry->Counter("net.closed", s.closed);
  registry->Counter("net.rejected", s.rejected);
  registry->Counter("net.frames.read", s.frames_read);
  registry->Counter("net.frames.written", s.frames_written);
  registry->Counter("net.bytes.read", s.bytes_read);
  registry->Counter("net.bytes.written", s.bytes_written);
  registry->Counter("net.queries", s.queries);
  registry->Counter("net.execs", s.execs);
  registry->Counter("net.cancels", s.cancels);
  registry->Counter("net.cancel_misses", s.cancel_misses);
  registry->Counter("net.stats_requests", s.stats_requests);
  registry->Counter("net.protocol_errors", s.protocol_errors);
  registry->Counter("net.read_errors", s.read_errors);
  registry->Counter("net.write_errors", s.write_errors);
  registry->Counter("net.accept_errors", s.accept_errors);
  registry->Counter("net.poll_errors", s.poll_errors);
  registry->Counter("net.drain_rejected", s.drain_rejected);
  registry->Gauge("net.connections.active", static_cast<double>(active));
  registry->Gauge("net.queries.pending",
                  static_cast<double>(pending_total_.load()));
}

void Server::Count(uint64_t ServerStats::*field, uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.*field += n;
}

void Server::WakePoller() {
  if (wake_fds_[1] >= 0) {
    char b = 1;
    ssize_t ignored = ::write(wake_fds_[1], &b, 1);
    (void)ignored;  // a full pipe already guarantees a wakeup
  }
}

void Server::PollLoop() {
  for (;;) {
    std::vector<pollfd> fds;
    std::vector<ConnPtr> polled;
    const Phase phase = phase_.load();
    if (phase == Phase::kStopping) break;
    const bool accepting = phase == Phase::kServing;
    {
      std::lock_guard<std::mutex> lock(mu_);
      fds.push_back({wake_fds_[0], POLLIN, 0});
      if (accepting) fds.push_back({listen_fd_, POLLIN, 0});
      polled.reserve(conns_.size());
      for (const auto& [fd, conn] : conns_) {
        fds.push_back({fd, POLLIN, 0});
        polled.push_back(conn);
      }
    }
    int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      // A persistent failure (e.g. EINVAL once nfds exceeds the rlimit)
      // returns immediately; back off instead of busy-spinning the
      // rebuild-and-retry loop at 100% CPU.
      Count(&ServerStats::poll_errors);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (fds[0].revents & POLLIN) {
      char buf[64];
      while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    size_t base = 1;
    if (accepting) {
      if (fds[1].revents & POLLIN) Accept();
      base = 2;
    }
    for (size_t i = 0; i < polled.size(); ++i) {
      const ConnPtr& conn = polled[i];
      const pollfd& p = fds[base + i];
      if (conn->wants_close.load()) {
        CloseConnection(conn);
        continue;
      }
      if ((p.revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      if (!ReadAvailable(conn).ok()) {
        Count(&ServerStats::read_errors);
        CloseConnection(conn);
        continue;
      }
      if (!DrainFrames(conn) || conn->wants_close.load()) {
        CloseConnection(conn);
      }
    }
  }
  // Stopping: tear everything down. Closing cancels pending tokens; their
  // callbacks drain after the poller exits (Shutdown waits for them).
  std::vector<ConnPtr> rest;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [fd, conn] : conns_) rest.push_back(conn);
  }
  for (const ConnPtr& conn : rest) CloseConnection(conn);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void Server::Accept() {
  int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      Count(&ServerStats::accept_errors);
    }
    return;
  }
  // The fail point fires after accept so injection closes a real
  // connection (the client observes a reset, the chaos test's vantage
  // point) instead of busy-looping the listen socket.
  if (!FailAccept().ok()) {
    ::close(fd);
    Count(&ServerStats::accept_errors);
    return;
  }
  (void)SetNonBlocking(fd);
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto conn = std::make_shared<Connection>();
  conn->fd = fd;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (conns_.size() < options_.max_connections) {
      conn->id = next_session_id_++;
      conns_[fd] = conn;
      ++stats_.accepted;
      return;
    }
    ++stats_.rejected;
  }
  ErrorMsg err;
  err.message = "server connection limit reached";
  std::string frame;
  AppendFrame(MsgType::kError, 0, EncodeError(err), &frame);
  (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
  ::close(fd);
}

Status Server::ReadAvailable(const ConnPtr& conn) {
  Status injected = FailRead();
  if (!injected.ok()) return injected;
  char buf[16384];
  size_t got = 0;
  Status status;
  while (got < kReadBudgetBytes) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      got += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {
      // Clean EOF: whatever complete frames are buffered still dispatch,
      // then the connection closes.
      conn->wants_close.store(true);
    } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
      status = Errno("recv");
    }
    break;
  }
  if (got > 0) Count(&ServerStats::bytes_read, got);
  return status;
}

bool Server::DrainFrames(const ConnPtr& conn) {
  for (;;) {
    Frame frame;
    std::string why;
    FrameStatus st =
        NextFrame(&conn->inbuf, options_.max_frame_bytes, &frame, &why);
    if (st == FrameStatus::kNeedMore) return true;
    if (st == FrameStatus::kBad) {
      ProtocolError(conn, 0, why);
      return false;
    }
    Count(&ServerStats::frames_read);
    if (!Dispatch(conn, frame)) return false;
    if (conn->wants_close.load()) return true;
  }
}

bool Server::Dispatch(const ConnPtr& conn, const Frame& f) {
  if (!conn->hello_done && f.type != MsgType::kHello) {
    ProtocolError(conn, f.request_id, "HELLO required before any other message");
    return false;
  }
  switch (f.type) {
    case MsgType::kHello: {
      if (conn->hello_done) {
        ProtocolError(conn, f.request_id, "duplicate HELLO");
        return false;
      }
      Result<Hello> hello = DecodeHello(f.body);
      if (!hello.ok()) {
        ProtocolError(conn, f.request_id,
                      "bad HELLO: " + hello.status().message());
        return false;
      }
      if (hello->version != kProtocolVersion) {
        ProtocolError(conn, f.request_id,
                      "unsupported protocol version " +
                          std::to_string(hello->version) + " (server speaks " +
                          std::to_string(kProtocolVersion) + ")");
        return false;
      }
      // Tenant ids flow into per-tenant maps (admission stats, weights);
      // an unbounded client-chosen string is a memory-growth vector, so
      // the cap is enforced at the door.
      if (hello->tenant.size() > kMaxTenantIdBytes) {
        ProtocolError(conn, f.request_id,
                      "tenant id exceeds " +
                          std::to_string(kMaxTenantIdBytes) + " bytes");
        return false;
      }
      conn->hello_done = true;
      conn->tenant = hello->tenant;
      HelloOk ok;
      ok.version = kProtocolVersion;
      ok.session_id = conn->id;
      ok.server_info = options_.server_info;
      return SendFrame(conn, MsgType::kHelloOk, f.request_id, EncodeHelloOk(ok))
          .ok();
    }
    case MsgType::kQuery:
      if (phase_.load() != Phase::kServing) {
        // Shutdown in progress: refusing here keeps pending_total_
        // monotonically decreasing so the drain wait terminates. The
        // refusal travels as a failed RESULT (like any per-query error)
        // and the connection stays open for RESULTs still in flight.
        Count(&ServerStats::drain_rejected);
        ResultMsg r;
        r.ok = false;
        r.error = "server draining: query rejected";
        (void)SendFrame(conn, MsgType::kResult, f.request_id,
                        EncodeResult(r));
        return true;
      }
      HandleQuery(conn, f);
      return true;
    case MsgType::kCancel: {
      Result<CancelMsg> c = DecodeCancel(f.body);
      if (!c.ok()) {
        ProtocolError(conn, f.request_id, "bad CANCEL: " + c.status().message());
        return false;
      }
      std::shared_ptr<gov::CancelToken> target;
      {
        std::lock_guard<std::mutex> lock(conn->pending_mu);
        auto it = conn->pending.find(c->target_request);
        if (it != conn->pending.end()) target = it->second;
      }
      // A miss means the target already finished: a benign race.
      Count(target != nullptr ? &ServerStats::cancels
                              : &ServerStats::cancel_misses);
      // No reply: the cancelled QUERY's own RESULT carries the outcome
      // (either rows, if it won the race, or the governor's cancel error).
      if (target != nullptr) target->Cancel();
      return true;
    }
    case MsgType::kStats: {
      Count(&ServerStats::stats_requests);
      StatsResult sr;
      sr.prometheus = BuildStatsText();
      return SendFrame(conn, MsgType::kStatsResult, f.request_id,
                       EncodeStatsResult(sr))
          .ok();
    }
    case MsgType::kExec: {
      Result<ExecMsg> e = DecodeExec(f.body);
      if (!e.ok()) {
        ProtocolError(conn, f.request_id, "bad EXEC: " + e.status().message());
        return false;
      }
      Count(&ServerStats::execs);
      // Runs on the poller by design: DDL stalls only *new* messages.
      // Queries already admitted keep draining on the snapshot they
      // pinned; ApplyDdl publishes the successor before this returns.
      Status applied = service_->ApplyDdl(e->script);
      ResultMsg r;
      if (applied.ok()) {
        r.ok = true;
        if (srv::SnapshotRef snap = service_->current_snapshot()) {
          r.catalog_epoch = snap->catalog_epoch;
          r.rules_epoch = snap->rules_epoch;
        }
      } else {
        r.ok = false;
        r.error = applied.message();
      }
      return SendFrame(conn, MsgType::kResult, f.request_id, EncodeResult(r))
          .ok();
    }
    case MsgType::kGoodbye:
      (void)SendFrame(conn, MsgType::kGoodbyeOk, f.request_id, "");
      return false;  // orderly close
    default:
      ProtocolError(conn, f.request_id,
                    std::string("unexpected message type ") + TypeName(f.type));
      return false;
  }
}

void Server::HandleQuery(const ConnPtr& conn, const Frame& f) {
  Result<QueryMsg> q = DecodeQuery(f.body);
  if (!q.ok()) {
    ProtocolError(conn, f.request_id, "bad QUERY: " + q.status().message());
    return;
  }
  const uint64_t id = f.request_id;
  auto token = std::make_shared<gov::CancelToken>();
  {
    std::lock_guard<std::mutex> lock(conn->pending_mu);
    if (!conn->pending.emplace(id, token).second) {
      ProtocolError(conn, id, "duplicate request id");
      return;
    }
  }
  Count(&ServerStats::queries);
  pending_total_.fetch_add(1);
  srv::SubmitOptions opts;
  opts.cancel = token.get();
  opts.tenant = conn->tenant;
  // `token` rides in the capture so it outlives the query even if the
  // connection dies first; the callback runs on a service worker.
  service_->SubmitWithCallback(
      std::move(q->esql), opts,
      [this, conn, token, id](Result<srv::ServedQuery> served) {
        ResultMsg msg;
        if (served.ok()) {
          msg = RenderServed(*served);
        } else {
          msg.ok = false;
          msg.error = served.status().message();
        }
        std::string body = EncodeResult(msg);
        // A frame over the cap would be refused by the client's NextFrame,
        // which drops the connection and every query pipelined on it; the
        // query fails with a message instead.
        const size_t frame_bytes = kFrameHeaderBytes + body.size();
        if (frame_bytes > options_.max_frame_bytes) {
          ResultMsg too_big;
          too_big.ok = false;
          too_big.error = "result too large: its RESULT frame is " +
                          std::to_string(frame_bytes) +
                          " bytes, over the max_frame_bytes cap of " +
                          std::to_string(options_.max_frame_bytes);
          body = EncodeResult(too_big);
        }
        (void)SendFrame(conn, MsgType::kResult, id, body);
        FinishPending(conn, id);
      });
}

Status Server::SendFrame(const ConnPtr& conn, MsgType type,
                         uint64_t request_id, std::string_view body) {
  auto fail = [&](Status s) {
    Count(&ServerStats::write_errors);
    conn->wants_close.store(true);
    WakePoller();
    return s;
  };
  Status injected = FailWrite();
  if (!injected.ok()) return fail(injected);
  std::string frame;
  AppendFrame(type, request_id, body, &frame);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->fd < 0) return fail(Status::RuntimeError("connection closed"));
  size_t off = 0;
  // Write deadline: a frame (up to max_frame_bytes) can exceed the socket
  // send buffer, and a client that simply stops reading would otherwise
  // park this thread in the EAGAIN loop forever — fatal when the caller
  // is the poller (inline HELLO_OK/ERROR/STATS_RESULT/EXEC replies).
  const uint64_t deadline_ns =
      options_.write_timeout_ms == 0
          ? 0
          : obs::NowNs() + options_.write_timeout_ms * 1'000'000ULL;
  while (off < frame.size()) {
    ssize_t n = ::send(conn->fd, frame.data() + off, frame.size() - off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Slow reader: wait for writability in short slices so a poller
      // shutdown (which shuts the socket down first, failing this send)
      // never waits behind us for long.
      if (conn->wants_close.load() || phase_.load() == Phase::kStopping) {
        return fail(Status::RuntimeError("connection closing"));
      }
      if (deadline_ns != 0 && obs::NowNs() >= deadline_ns) {
        return fail(Status::RuntimeError(
            "send timed out after " +
            std::to_string(options_.write_timeout_ms) +
            "ms: client not reading"));
      }
      pollfd p{conn->fd, POLLOUT, 0};
      ::poll(&p, 1, 50);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return fail(Errno("send"));
  }
  std::lock_guard<std::mutex> slock(mu_);
  ++stats_.frames_written;
  stats_.bytes_written += frame.size();
  return Status::OK();
}

void Server::ProtocolError(const ConnPtr& conn, uint64_t request_id,
                           const std::string& message) {
  Count(&ServerStats::protocol_errors);
  ErrorMsg err;
  err.message = message;
  (void)SendFrame(conn, MsgType::kError, request_id, EncodeError(err));
  conn->wants_close.store(true);
}

void Server::CloseConnection(const ConnPtr& conn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(conn->fd);
    if (it == conns_.end() || it->second != conn) return;  // already gone
    conns_.erase(it);
    ++stats_.closed;
  }
  // Everything still in flight gets cancelled; the service's callbacks
  // still fire (finding the socket closed) and drain pending_total_.
  std::vector<std::shared_ptr<gov::CancelToken>> inflight;
  {
    std::lock_guard<std::mutex> lock(conn->pending_mu);
    for (const auto& [id, p] : conn->pending) inflight.push_back(p);
    conn->pending.clear();
  }
  for (const auto& token : inflight) token->Cancel();
  conn->wants_close.store(true);
  // Shut down before taking write_mu: a worker blocked in send() wakes
  // with an error and releases the lock instead of stalling the poller.
  ::shutdown(conn->fd, SHUT_RDWR);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  ::close(conn->fd);
  conn->fd = -1;
}

void Server::FinishPending(const ConnPtr& conn, uint64_t request_id) {
  {
    std::lock_guard<std::mutex> lock(conn->pending_mu);
    conn->pending.erase(request_id);
  }
  pending_total_.fetch_sub(1);
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
  }
  drain_cv_.notify_all();
}

std::string Server::BuildStatsText() const {
  obs::MetricsRegistry registry;
  service_->ExportMetrics(&registry);
  ExportMetrics(&registry);
  return registry.ToPrometheus();
}

}  // namespace eds::net
