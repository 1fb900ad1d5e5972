#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/strings.h"

namespace nonserial {

namespace {

Status Errno(const char* what) {
  return Status::Internal(StrCat(what, ": ", std::strerror(errno)));
}

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SessionServer::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

SessionServer::SessionServer(Engine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      metrics_(engine->metrics()) {}

SessionServer::~SessionServer() { Stop(); }

Status SessionServer::Start() {
  NONSERIAL_CHECK(!started_) << "SessionServer::Start called twice";
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(StrCat("bad listen host: ", options_.host));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Errno("bind");
  }
  if (::listen(listen_fd_, 128) < 0) return Errno("listen");
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(listen_fd_);

  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return Errno("eventfd");
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event) < 0) {
    return Errno("epoll_ctl(listen)");
  }
  event.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) < 0) {
    return Errno("epoll_ctl(wakeup)");
  }

  workers_ =
      std::make_unique<ThreadPool>(std::max(1, options_.num_workers));
  event_thread_ = std::thread([this] { EventLoop(); });
  started_ = true;
  return Status::OK();
}

void SessionServer::Stop() {
  if (!started_) return;
  if (!stopping_.exchange(true)) {
    // One eventfd tick pops the event loop out of epoll_wait immediately —
    // and stays readable for every worker poll()ing a blocked send, so
    // teardown latency is bounded by work in flight, not by any timer.
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
  if (event_thread_.joinable()) event_thread_.join();
  // Drain in-flight request handlers (the pool destructor runs the queue
  // dry and joins). Connections die with their last worker reference.
  workers_.reset();
  connections_.clear();
  active_connections_.store(0, std::memory_order_relaxed);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  epoll_fd_ = listen_fd_ = wake_fd_ = -1;
  started_ = false;
  stopping_.store(false);
}

void SessionServer::EventLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    // No fixed tick: the eventfd wake makes Stop() latency work-bound, so
    // the loop may sleep until the next readable fd — or, under leases,
    // until the nearest lease deadline.
    int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, LeaseTimeoutMs());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) continue;  // Stop() — outer loop exits.
      if (fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConnection(fd);
        continue;
      }
      // Copy the shared_ptr: HandleReadable may CloseConnection, which
      // erases the map entry a bare reference would dangle into.
      std::shared_ptr<Connection> conn = it->second;
      HandleReadable(conn);
    }
    ReclaimExpiredLeases();
  }
  // Half-close every connection so blocked client reads fail fast; the
  // Connection objects (and their sessions) are released in Stop() once
  // the workers drain.
  for (auto& [fd, conn] : connections_) {
    conn->closed.store(true, std::memory_order_release);
    ::shutdown(fd, SHUT_RDWR);
  }
}

void SessionServer::AcceptPending() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN — drained.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(fd);
    conn->session = engine_->OpenSession();
    conn->last_activity_us.store(NowUs(), std::memory_order_relaxed);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
      continue;  // conn closes via destructor.
    }
    connections_.emplace(fd, std::move(conn));
    active_connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SessionServer::HandleReadable(const std::shared_ptr<Connection>& conn) {
  conn->last_activity_us.store(NowUs(), std::memory_order_relaxed);
  char buf[16 * 1024];
  for (;;) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Peer closed (or hard error): tear the connection down.
    CloseConnection(conn->fd);
    return;
  }

  // Parse every complete frame in the buffer.
  size_t consumed = 0;
  bool fatal = false;
  while (consumed < conn->inbuf.size()) {
    wire::DecodedFrame frame = wire::DecodeFrame(
        conn->inbuf.data() + consumed, conn->inbuf.size() - consumed);
    if (frame.status == wire::FrameStatus::kNeedMore) break;
    if (frame.status == wire::FrameStatus::kCorrupt) {
      // A corrupt frame poisons the stream (framing is lost): report once,
      // then drop exactly this connection. Other sessions are untouched.
      metrics_->server_wire_errors.Add();
      wire::Response response;
      response.code = StatusCode::kInvalidArgument;
      response.message = StrCat("wire: ", frame.error);
      SendFrame(conn.get(), wire::EncodeResponse(response));
      fatal = true;
      break;
    }
    consumed += frame.frame_bytes;

    wire::Request request;
    Status decoded = wire::DecodeRequest(frame.type, frame.payload, &request);
    if (!decoded.ok()) {
      // CRC-valid but semantically malformed: the framing survives, so the
      // error is answerable per request without closing the stream.
      metrics_->server_wire_errors.Add();
      wire::Response response;
      response.code = decoded.code();
      response.message = decoded.message();
      SendFrame(conn.get(), wire::EncodeResponse(response));
      continue;
    }

    bool spawn = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->queue.size() >= options_.max_queue_depth) {
        // Queue overflow: shed rather than buffer without bound. The
        // client retries later; counted with the admission sheds.
        metrics_->server_shed.Add();
        wire::Response response;
        response.code = StatusCode::kResourceExhausted;
        response.message = "server: request queue full; retry later";
        SendFrame(conn.get(), wire::EncodeResponse(response));
        continue;
      }
      conn->queue.push_back(std::move(request));
      metrics_->server_queue_depth.Record(
          static_cast<int64_t>(conn->queue.size()));
      if (!conn->running) {
        conn->running = true;
        spawn = true;
      }
    }
    if (spawn) {
      std::shared_ptr<Connection> owned = conn;
      workers_->Submit([this, owned] { PumpQueue(owned); });
    }
  }
  conn->inbuf.erase(0, consumed);
  if (fatal) CloseConnection(conn->fd);
}

void SessionServer::PumpQueue(std::shared_ptr<Connection> conn) {
  for (;;) {
    wire::Request request;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->queue.empty()) {
        conn->running = false;
        // The lease clock restarts when the last queued request finishes,
        // not when it arrived — a long-running request is activity.
        conn->last_activity_us.store(NowUs(), std::memory_order_relaxed);
        return;
      }
      request = std::move(conn->queue.front());
      conn->queue.pop_front();
    }
    metrics_->server_requests.Add();
    wire::Response response = Execute(conn.get(), request);
    bool is_commit = request.type == wire::MsgType::kCommit;
    // The lost-ack fault the idempotency token exists for: the commit
    // applied (and is durable), but the connection dies before the client
    // sees the verdict. The client's resend of the same token must be
    // answered from the token table, not re-executed.
    if (is_commit && NONSERIAL_FAILPOINT("net.disconnect_before_commit_ack")) {
      AbandonConnection(conn.get());
      continue;
    }
    if (!conn->closed.load(std::memory_order_acquire)) {
      SendFrame(conn.get(), wire::EncodeResponse(response));
    }
    // Ack delivered, then the connection dies: the client reconnects but
    // must not re-apply (its commit already answered).
    if (is_commit && NONSERIAL_FAILPOINT("net.disconnect_after_commit_ack")) {
      AbandonConnection(conn.get());
    }
  }
}

wire::Response SessionServer::Execute(Connection* conn,
                                      const wire::Request& request) {
  Session* session = conn->session.get();
  wire::Response response;
  auto fill = [&response](const Status& status) {
    response.code = status.code();
    if (!status.ok()) response.message = status.message();
  };
  switch (request.type) {
    case wire::MsgType::kPredicate:
      conn->staged_input = request.input;
      conn->staged_output = request.output;
      conn->has_staged = true;
      break;
    case wire::MsgType::kBegin: {
      engine::TxSpec spec;
      spec.name = request.name;
      spec.predecessors = request.predecessors;
      if (request.use_staged) {
        if (!conn->has_staged) {
          fill(Status::FailedPrecondition(
              "begin: no staged predicates on this session"));
          break;
        }
        spec.input = conn->staged_input;
        spec.output = conn->staged_output;
      } else {
        spec.input = request.input;
        spec.output = request.output;
      }
      fill(session->Begin(spec));
      response.value = session->tx();
      break;
    }
    case wire::MsgType::kRead: {
      StatusOr<Value> value = session->Read(request.entity);
      fill(value.status());
      if (value.ok()) response.value = *value;
      break;
    }
    case wire::MsgType::kWrite:
      fill(session->Write(request.entity, request.value));
      break;
    case wire::MsgType::kCommit: {
      if (request.token != 0) {
        int committed_tx = -1;
        Engine::TokenState state =
            engine_->LookupCommitToken(request.token, &committed_tx);
        if (state == Engine::TokenState::kCommitted) {
          // Replay of a commit that already happened (a resend after a lost
          // ack): answer the original verdict. If the reconnecting client
          // re-ran the transaction body first, that open attempt must not
          // double-apply — roll it back before answering.
          session->Abort();
          metrics_->server_retries.Add();
          response.code = StatusCode::kOk;
          response.value = committed_tx;
          break;
        }
        if (state == Engine::TokenState::kPending &&
            !session->in_transaction()) {
          // Another connection's commit with this token is mid-flight;
          // its verdict isn't known yet. Retry later. (Advisory only:
          // Session::Commit claims the token atomically, so two commits
          // racing past this check still cannot both execute.)
          fill(Status::ResourceExhausted(
              "commit: token already in flight; retry later"));
          break;
        }
      }
      fill(session->Commit(request.token));
      break;
    }
    case wire::MsgType::kAbort:
      fill(session->Abort());
      break;
    case wire::MsgType::kPing:
      response.value = request.value;
      break;
    case wire::MsgType::kResponse:
      fill(Status::InvalidArgument("response frame sent as a request"));
      break;
  }
  return response;
}

void SessionServer::SendFrame(Connection* conn, const std::string& frame) {
  // The net.* fault catalog, deterministic via the registry's seeded
  // DrawBits stream (same discipline as the wal.* media faults): each
  // armed point damages this outbound frame the way a faulty network
  // would, and every damage parameter replays from the schedule seed.
  FailpointRegistry& fp = FailpointRegistry::Global();
  if (NONSERIAL_FAILPOINT("net.drop_frame")) return;  // Swallowed in flight.
  if (NONSERIAL_FAILPOINT("net.delay")) {
    // Bounded stall (0..2ms): reorders this response against other
    // connections' traffic and widens client-timeout races.
    std::this_thread::sleep_for(
        std::chrono::microseconds(fp.DrawBits() % 2000));
  }
  const std::string* out = &frame;
  std::string corrupted;
  if (!frame.empty() && NONSERIAL_FAILPOINT("net.corrupt_frame")) {
    // One bit flips in flight; the client's CRC check must reject the
    // frame (and the client treats the stream as poisoned).
    corrupted = frame;
    uint64_t bits = fp.DrawBits();
    corrupted[bits % corrupted.size()] ^=
        static_cast<char>(1u << ((bits >> 32) % 8));
    out = &corrupted;
  }
  size_t limit = out->size();
  bool tear_after = false;
  if (out->size() > 1 && NONSERIAL_FAILPOINT("net.partial_write")) {
    // The connection dies mid-frame: a strict prefix lands, then the
    // socket closes. The client sees a torn frame + EOF.
    limit = 1 + fp.DrawBits() % (out->size() - 1);
    tear_after = true;
  }
  std::lock_guard<std::mutex> lock(conn->write_mu);
  size_t sent = 0;
  while (sent < limit) {
    ssize_t n =
        ::send(conn->fd, out->data() + sent, limit - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Wait for writability OR the shutdown wake (the eventfd stays
      // readable once Stop() posts it), so a worker blocked on a stalled
      // peer cannot delay teardown by a timeout tick.
      pollfd pfds[2] = {{conn->fd, POLLOUT, 0}, {wake_fd_, POLLIN, 0}};
      ::poll(pfds, 2, /*timeout_ms=*/1000);
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return;  // Peer gone; the reader side will reap the connection.
  }
  if (tear_after) AbandonConnection(conn);
}

void SessionServer::AbandonConnection(Connection* conn) {
  // Worker-side: no access to connections_ (event-loop owned). Marking
  // closed + half-closing makes the event loop reap the entry on the HUP.
  conn->closed.store(true, std::memory_order_release);
  ::shutdown(conn->fd, SHUT_RDWR);
}

int SessionServer::LeaseTimeoutMs() const {
  if (options_.lease_ms <= 0) return -1;
  if (connections_.empty()) return -1;  // Accepts wake epoll anyway.
  int64_t now = NowUs();
  int64_t lease_us = options_.lease_ms * 1000;
  int64_t nearest_us = lease_us;
  for (const auto& [fd, conn] : connections_) {
    int64_t expires =
        conn->last_activity_us.load(std::memory_order_relaxed) + lease_us -
        now;
    nearest_us = std::min(nearest_us, expires);
  }
  // Round up so the wake lands at-or-after the deadline; floor at 1ms.
  return static_cast<int>(std::max<int64_t>(1, (nearest_us + 999) / 1000));
}

void SessionServer::ReclaimExpiredLeases() {
  if (options_.lease_ms <= 0) return;
  int64_t now = NowUs();
  int64_t lease_us = options_.lease_ms * 1000;
  std::vector<int> expired;
  for (const auto& [fd, conn] : connections_) {
    {
      // A queued or running request is activity in progress; only sessions
      // idle at the protocol level are reclaimable.
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->running || !conn->queue.empty()) continue;
    }
    if (now - conn->last_activity_us.load(std::memory_order_relaxed) >=
        lease_us) {
      expired.push_back(fd);
    }
  }
  for (int fd : expired) {
    metrics_->server_lease_expired.Add();
    // The map entry goes now; the Connection object — and with it the
    // session, whose destructor rolls back any in-flight transaction and
    // releases the admission slot — dies with its last reference.
    CloseConnection(fd);
  }
}

void SessionServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  it->second->closed.store(true, std::memory_order_release);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  // Half-close now (wakes any peer), full close when the last reference —
  // possibly a worker mid-request — drops the Connection. The session
  // aborts any open transaction in its destructor.
  ::shutdown(fd, SHUT_RDWR);
  connections_.erase(it);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace nonserial
