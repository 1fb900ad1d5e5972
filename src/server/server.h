#ifndef NONSERIAL_SERVER_SERVER_H_
#define NONSERIAL_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "server/wire.h"

namespace nonserial {

struct ServerOptions {
  /// Listen address. Port 0 binds an ephemeral port (read it back with
  /// port() after Start — the test/bench pattern).
  std::string host = "127.0.0.1";
  int port = 0;
  /// Fixed worker pool executing session requests. A worker parks for the
  /// duration of a blocked protocol wait, so size this above the expected
  /// number of concurrently blocked sessions (and give the engine a
  /// max_blocked_us bound so an abandoned wait cannot pin a worker
  /// forever).
  int num_workers = 4;
  /// Bound on queued-but-unexecuted requests per connection. Overflow is
  /// shed with kResourceExhausted (retry later) instead of queued — a slow
  /// session back-pressures its own client, never the whole server.
  size_t max_queue_depth = 64;
  /// Session lease: a connection idle (no frame arrival, no queued or
  /// running request) for this long is reclaimed — the connection closes,
  /// its session's in-flight transaction rolls back, and the admission slot
  /// frees. Protects a long-lived server from abandoned clients (half-open
  /// TCP peers, crashed processes) pinning transactions forever. Counted as
  /// server_lease_expired. 0 disables leases.
  int64_t lease_ms = 0;
};

/// TCP front end for one Engine: accepts connections, speaks the framed
/// wire protocol (server/wire.h), and maps each connection to one
/// engine Session — BEGIN/READ/WRITE/PREDICATE/COMMIT/ABORT/PING frames
/// drive the session's transaction lifecycle, responses carry the Status
/// vocabulary back (kResourceExhausted = retry later).
///
/// Threading model: one epoll event-loop thread owns the listener, all
/// connection reads, and frame parsing; decoded requests go to the
/// connection's FIFO queue and a fixed ThreadPool executes them. Per
/// connection at most one worker runs at a time (the session contract:
/// one thread at a time), so requests of one session execute in arrival
/// order while different sessions run concurrently. Workers write
/// responses directly to the socket under a per-connection write lock.
///
/// Backpressure has three layers, all surfaced through ProtocolMetrics:
///  - admission control at Begin (engine max_inflight_tx / WAL backlog,
///    server.accepted / server.shed, server.inflight histogram);
///  - per-connection queue bounds (max_queue_depth, server.queue_depth
///    histogram, overflow counted in server.shed);
///  - malformed frames cost exactly their own connection
///    (server.wire_errors), never the process.
///
/// Teardown: Stop() closes the listener and every connection and drains
/// the workers. Shut the engine down FIRST (Engine::Shutdown or
/// ScopedEngineShutdown) when sessions may be parked mid-protocol — the
/// engine wake-up is what unblocks them; Stop alone cannot interrupt a
/// parked session.
class SessionServer {
 public:
  SessionServer(Engine* engine, ServerOptions options);
  ~SessionServer();

  SessionServer(const SessionServer&) = delete;
  SessionServer& operator=(const SessionServer&) = delete;

  /// Binds, listens, and starts the event loop + workers.
  Status Start();

  /// Stops accepting, closes every connection, joins the event loop, and
  /// drains the workers. Idempotent.
  void Stop();

  /// The bound port (valid after Start; useful with port 0).
  int port() const { return port_; }

  /// Connections currently open (diagnostics).
  int active_connections() const {
    return active_connections_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-connection state. The event-loop thread owns fd reads, inbuf, and
  /// the connections_ map entry; mu guards the request queue and the
  /// running flag; the owning worker (at most one, enforced by `running`)
  /// owns the session and the staged predicates.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    ~Connection();

    int fd;
    std::unique_ptr<Session> session;
    std::string inbuf;
    // Prepared-statement predicates staged by kPredicate for kBegin.
    Predicate staged_input;
    Predicate staged_output;
    bool has_staged = false;

    std::mutex mu;
    std::deque<wire::Request> queue;
    bool running = false;  ///< A worker currently owns this connection.

    std::mutex write_mu;
    std::atomic<bool> closed{false};

    /// Lease clock: microseconds (steady) of the last frame arrival or
    /// request completion. Written by the event loop and workers, read by
    /// the event loop's lease sweep — hence atomic.
    std::atomic<int64_t> last_activity_us{0};
  };

  void EventLoop();
  void AcceptPending();
  void HandleReadable(const std::shared_ptr<Connection>& conn);
  /// Worker entry: drains the connection's queue one request at a time.
  void PumpQueue(std::shared_ptr<Connection> conn);
  wire::Response Execute(Connection* conn, const wire::Request& request);
  /// Sends one encoded frame (handles short writes; EAGAIN polls out). The
  /// net.* failpoint catalog lives here: drop/delay/corrupt/partial-write
  /// faults apply to any outbound frame, deterministically parameterized by
  /// the failpoint registry's DrawBits stream.
  void SendFrame(Connection* conn, const std::string& frame);
  /// Half-closes the socket and drops the map entry; the Connection object
  /// (and its session) dies when the last worker reference does. Event-loop
  /// thread only.
  void CloseConnection(int fd);
  /// Worker-side teardown: marks the connection dead and half-closes the
  /// socket; the event loop reaps the map entry on the resulting HUP.
  void AbandonConnection(Connection* conn);
  /// Closes every idle connection whose lease expired (lease_ms > 0).
  /// Event-loop thread only.
  void ReclaimExpiredLeases();
  /// epoll timeout until the nearest lease deadline (-1 when leases are
  /// off or no connection is expirable).
  int LeaseTimeoutMs() const;

  Engine* engine_;
  ServerOptions options_;
  ProtocolMetrics* metrics_;  ///< engine_->metrics() (never null).

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  /// Stop()/teardown wake-up: an eventfd in the epoll set. One write pops
  /// the event loop out of epoll_wait immediately (no fixed tick) and lets
  /// a blocked SendFrame's poll() observe shutdown instead of timing out.
  int wake_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<int> active_connections_{0};
  bool started_ = false;
  std::thread event_thread_;
  std::unique_ptr<ThreadPool> workers_;
  /// Event-loop-thread-owned (plus final cleanup after the loop joins).
  std::map<int, std::shared_ptr<Connection>> connections_;
};

}  // namespace nonserial

#endif  // NONSERIAL_SERVER_SERVER_H_
