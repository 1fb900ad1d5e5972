#ifndef NONSERIAL_ENGINE_ENGINE_H_
#define NONSERIAL_ENGINE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "engine/api.h"
#include "predicate/value.h"
#include "protocol/cep.h"
#include "protocol/registry.h"
#include "storage/version_store.h"
#include "storage/wal.h"

namespace nonserial {

class Session;

/// Everything needed to assemble one protocol engine (store + WAL +
/// controller + eval cache): the parallel driver, the scenario runner, the
/// benches, and the network server are all clients of the same engine.
struct EngineOptions {
  /// Initial database state (one value per entity).
  ValueVector initial;
  /// Options forwarded to the protocol engine (metrics sink, eval cache,
  /// retirement). Pointers inside are not owned. A null metrics sink makes
  /// the engine count into one it owns (Engine::metrics()).
  CorrectExecutionProtocol::Options protocol;
  /// Builds the hosted controller (protocol/registry.h). Null (the default)
  /// builds a CorrectExecutionProtocol from `protocol`, keeping cep() valid.
  /// A controller that is not thread_safe() is wrapped in a serializing
  /// decorator. Called at construction and on every CrashRecover.
  ControllerFactory controller_factory;
  /// Write-ahead log attached to the store. Not owned; its initial() must
  /// match `initial`. Null runs without durability.
  WriteAheadLog* wal = nullptr;
  /// Run the WAL in group-commit mode for the engine's lifetime: enabled at
  /// construction, drained and disabled by Shutdown(). Ignored without wal.
  bool wal_group_commit = false;
  /// Simulated device-flush latency forwarded to the WAL (set_flush_us).
  int64_t wal_flush_us = 0;
  /// Trace sink attached to the controller (and the WAL writer in group
  /// mode). Not owned; must be thread-safe and outlive the engine.
  TraceSink* observer = nullptr;

  // --- admission control / backpressure ----------------------------------
  /// Bound on concurrently admitted (begun, not yet terminated)
  /// transactions across all sessions. A Session::Begin over budget is
  /// shed with kResourceExhausted (the wire protocol's RETRY_LATER).
  /// 0 = unbounded.
  int max_inflight_tx = 0;
  /// Shed new transactions while the WAL group-commit pipeline backlog
  /// (staged, unflushed frames) exceeds this bound — the "group-commit
  /// acks falling behind" slow path. 0 = unbounded.
  uint64_t max_wal_backlog_frames = 0;

  // --- session blocked-wait policy ----------------------------------------
  /// Initial re-poll interval for a session parked on a blocked request;
  /// doubles per fruitless wait up to max_poll_us.
  int64_t poll_us = 500;
  int64_t max_poll_us = 8'000;
  /// Bounded waiting: one session attempt may spend at most this long
  /// parked on blocked requests before the engine aborts it (counted as
  /// deadline_aborts). 0 = unbounded.
  int64_t max_blocked_us = 0;

  // --- transaction retirement ---------------------------------------------
  /// Retire terminated session transactions — after a successful Commit,
  /// and on session close for an aborted-and-abandoned id — so the
  /// controller's live scan set stays bounded for long-lived servers
  /// (AllowableVersions cost stops growing with total transaction count).
  /// Implies CorrectExecutionProtocol::Options::retirement for the default
  /// controller. Ids not yet eligible (a live successor remains) park on a
  /// pending list retried at every later retirement. Off by default — the
  /// baseline-candidate summarization restricts the optimistic candidate
  /// sets (see cep.h), which simulation workloads may observe.
  bool retire_terminated_tx = false;
};

/// The engine facade: one store + controller (+ WAL pipeline + eval cache)
/// assembly with an explicit session API. Construction wires everything,
/// attaching the engine's metrics sink to the default CEP, the eval cache
/// and the WAL, so each layer counts its own events into it as they
/// happen. Shutdown() (or the destructor) tears it down in the one safe
/// order — wake parked sessions, drain the WAL group-commit pipeline,
/// detach the WAL's sink and observer.
///
/// Clients drive transactions only through Sessions (OpenSession):
/// independent lifecycles that arrive, issue Begin/Read/Write/Commit/Abort
/// over time, and depart. The network server holds one per connection, the
/// parallel driver one per workload transaction.
///
/// Thread safety: all methods are safe to call concurrently; per-Session
/// calls must stay on one thread at a time (the session owns its
/// transaction's phase transitions, same contract as the controller).
class Engine {
 public:
  explicit Engine(EngineOptions options);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Orderly teardown; idempotent, safe to call while sessions are parked
  /// (they are woken and their attempts abort with kAborted). After
  /// Shutdown the components remain readable (records, stats, store) but
  /// new Begins are refused.
  void Shutdown();
  bool shutting_down() const {
    return stopping_.load(std::memory_order_acquire);
  }

  // --- component access ---------------------------------------------------
  VersionStore* store() const { return store_.get(); }
  /// The hosted controller, as the base interface every protocol speaks.
  /// Sessions route through this (through the serializing decorator for a
  /// controller that is not thread_safe()).
  ConcurrencyController* controller() const { return controller_.get(); }
  /// The hosted CEP. Null when controller_factory built another protocol;
  /// CEP-specific clients (the parallel driver, commit tokens) must check.
  CorrectExecutionProtocol* cep() const { return cep_.get(); }
  WriteAheadLog* wal() const { return options_.wal; }
  /// The sink every layer counts into: EngineOptions::protocol.metrics, or
  /// one the engine owns. Never null; live while the engine runs.
  ProtocolMetrics* metrics() const { return metrics_.get(); }
  const EngineOptions& options() const { return options_; }
  /// Shared ownership handles (verification outlives the engine). A CEP
  /// kept past the engine must not be driven or asked for metrics() unless
  /// EngineOptions::protocol.metrics named a sink: the engine's own dies
  /// with it.
  std::shared_ptr<VersionStore> store_ref() const { return store_; }
  std::shared_ptr<CorrectExecutionProtocol> cep_ref() const { return cep_; }
  /// The protocol controller_factory built, unwrapped from the serializing
  /// decorator, so callers can downcast it to its protocol class.
  std::shared_ptr<ConcurrencyController> controller_ref() const;

  // --- crash / recovery (chaos harnesses) ---------------------------------
  /// Simulated crash-kill, the first half of a crash/restart: every session
  /// attempt in flight is abandoned without a rollback (only the log
  /// survives a crash), parked sessions wake with kAborted, and Begin is
  /// refused until CrashRecover.
  void Kill();

  /// Fault injection: forces the hosted CEP to abort `tx` and routes the
  /// signal at once, so a parked owner wakes now rather than at its next
  /// poll. Requires cep().
  void InjectAbort(int tx);

  /// The spec a recovered transaction was registered under.
  using RecoveredSpecLookup = std::function<engine::TxSpec(int tx)>;

  /// Simulated restart: recovers the store from the WAL, fences the log with
  /// a crash marker, swaps in the recovered store, rebuilds the controller,
  /// re-adopts every recovered commit into it, and invalidates the eval
  /// cache. The log keeps neither predicates nor P-edges: `spec_of` supplies
  /// them, else commits are re-adopted by name only (and retired at once
  /// under retire_terminated_tx). Sessions reset pre-crash attempts, without
  /// rollback, at their next Begin. On a non-ok status nothing is swapped.
  /// Requires quiesced clients: every session idle, killed, or closed.
  RecoveryResult CrashRecover(const RecoveryOptions& recovery_options,
                              const RecoveredSpecLookup& spec_of = nullptr);

  // --- sessions ------------------------------------------------------------
  /// Opens an independent session. The handle owns its transaction
  /// lifecycle: at most one in-flight transaction, aborted on destruction.
  /// The id its first transaction runs under is allocated here, so sessions
  /// opened one after another get consecutive ids. Must not outlive the
  /// engine.
  std::unique_ptr<Session> OpenSession();

  /// A parked transaction's pending protocol signal (Session::TakeSignal).
  enum class Signal : uint8_t { kNone, kWoken, kForced };

  /// Admitted session transactions currently in flight.
  int inflight() const { return inflight_.load(std::memory_order_relaxed); }

  // --- transaction retirement ---------------------------------------------
  /// Offers `tx` (terminal: committed, or idle-after-abort with no future
  /// reuse) for retirement and drains the pending list to a fixpoint —
  /// retiring a successor can make its predecessors eligible. No-op unless
  /// EngineOptions::retire_terminated_tx. Counted as engine_retired_tx.
  void RetireTx(int tx);

  // --- idempotent commit tokens -------------------------------------------
  /// Fate of a client-generated commit token. kPending means a commit
  /// carrying it is in flight right now; kCommitted means a transaction
  /// carrying it durably committed (resends must be answered with the
  /// original verdict, not re-executed).
  enum class TokenState : uint8_t { kAbsent, kPending, kCommitted };
  /// Looks a token up; on kCommitted, *tx (when non-null) receives the
  /// committed transaction's id. Rebuilt from the WAL by CrashRecover, so
  /// the table survives crash/restart exactly as far as durability does.
  TokenState LookupCommitToken(uint64_t token, int* tx = nullptr) const;

 private:
  friend class Session;

  /// Allocates one fresh runtime transaction id.
  int AllocateTxId();

  /// Admission check for one new session transaction: in-flight budget and
  /// WAL pipeline backlog. Counts server_accepted / server_shed.
  bool TryAdmit();
  void ReleaseAdmission();
  void OnSessionClosed();

  /// Builds the hosted controller against `store` (factory or default CEP),
  /// wraps it unless it is thread_safe(), and attaches the observer; fills
  /// cep_ iff the controller is a CEP.
  void BuildController(VersionStore* store);

  // --- signal hub ----------------------------------------------------------
  /// Routes protocol signals (wakeups, forced aborts) to per-transaction
  /// flags. Whichever session makes a controller call drains afterwards;
  /// parked owners wait on the hub's condition variable, so a signal
  /// drained by any session reaches the right owner.
  void EnsureTxSlots(int n);
  /// Grows the flag vectors to cover `tx`; hub_mu_ held.
  void CoverLocked(int tx);
  void DrainSignals();
  /// Parks until a wakeup or forced abort arrives for `tx`, the engine is
  /// killed or shut down, or `wait_us` elapses. Clears the wakeup flag;
  /// records the blocked time in wait_micros and adds it to *blocked_us.
  /// Returns true iff a forced abort is pending (flag left set;
  /// ClearSignals resets it).
  bool AwaitSignal(int tx, int64_t wait_us, int64_t* blocked_us);
  bool ForcedPending(int tx);
  void ClearSignals(int tx);
  /// The non-blocking park check: kForced (flag left set) wins over
  /// kWoken (flag consumed).
  Signal TakeSignal(int tx);

  EngineOptions options_;
  std::shared_ptr<VersionStore> store_;
  std::shared_ptr<ConcurrencyController> controller_;
  std::shared_ptr<CorrectExecutionProtocol> cep_;
  MetricsSink metrics_;

  std::atomic<int> next_tx_{0};
  std::atomic<int> inflight_{0};
  std::atomic<bool> stopping_{false};
  /// Set by Kill, cleared by CrashRecover; Begin is refused meanwhile.
  std::atomic<bool> killed_{false};
  /// Controller generation, bumped by Kill and by CrashRecover. A session
  /// whose generation is behind holds state of a dead controller.
  std::atomic<uint64_t> generation_{0};

  std::mutex lifecycle_mu_;  ///< Serializes Shutdown / CrashRecover.
  bool shutdown_done_ = false;

  std::mutex hub_mu_;
  std::condition_variable hub_cv_;
  std::vector<char> woken_;
  std::vector<char> forced_;

  /// Terminal ids whose retirement was refused (live successor); retried
  /// whenever another id retires.
  std::mutex retire_mu_;
  std::vector<int> retire_pending_;

  /// Commit-token table (exactly-once across reconnects). In-memory view
  /// of the durable kCommitToken records; CrashRecover rebuilds it.
  struct TokenEntry {
    int tx = -1;
    bool committed = false;
  };
  mutable std::mutex token_mu_;
  std::unordered_map<uint64_t, TokenEntry> tokens_;
};

/// An independent client lifecycle against the engine: Begin opens a
/// transaction (admission-controlled), Read/Write/Commit/Abort drive it,
/// and any kAborted return means the engine has already rolled the attempt
/// back — the caller just Begins again. Blocking protocol outcomes are
/// absorbed internally (park + retry with backoff), so every method
/// returns a terminal Status:
///
///   OK                  — performed
///   kAborted            — attempt rolled back; Begin again to retry
///   kResourceExhausted  — shed by admission control; retry later
///   kFailedPrecondition — call sequence error (no/duplicate transaction)
///   kInvalidArgument    — malformed spec (bad predecessor / entity id)
///
/// Each blocking method is one non-blocking step (Start*) followed by the
/// park: while the step reports the request blocked, the session waits for
/// its signal and re-issues it (Resume). A single-threaded driver that
/// parks sessions itself (sim/scheduler.h) calls the steps directly.
///
/// One thread at a time per session; different sessions are free to run
/// concurrently (the server's per-session queues enforce exactly this).
/// After Engine::Kill or CrashRecover, a session holding an attempt must
/// Begin again (or close) before anything else.
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Starts a transaction from `spec`. Predecessor ids must name already
  /// allocated transactions, not this session's own uncommitted id; naming
  /// one allocated after tx() moves the session to a fresh id.
  Status Begin(const engine::TxSpec& spec);
  /// Reads an entity within the open transaction.
  StatusOr<Value> Read(EntityId e);
  /// Writes an entity within the open transaction, releasing its W lock at
  /// once (WriteDone). Never blocks under CEP (writes are never delayed in
  /// the protocol, Figure 3); lock-based baselines may park it.
  Status Write(EntityId e, Value value);
  /// Attempts to commit; OK means durably committed (under a WAL, the
  /// commit record's flush epoch has been waited out). A nonzero `token`
  /// (client-generated idempotency token) is claimed atomically in the
  /// engine's token table — pending iff no other transaction holds it in
  /// any state; a commit racing for an already-claimed token sheds with
  /// kResourceExhausted before executing — and logged durably with the
  /// commit record, so a resend of the same token after a lost ack can be
  /// answered with the original verdict (see Engine::LookupCommitToken).
  /// On commit the entry flips to committed; on abort it is erased.
  Status Commit(uint64_t token = 0);
  /// Voluntarily rolls back the open transaction, or abandons a blocked
  /// step together with its attempt. OK when idle (no-op).
  Status Abort();

  // --- non-blocking steps ---------------------------------------------------
  /// The outcome of one step: the call's terminal result (the value read
  /// or written; 0 for the others), or nullopt while its request is
  /// blocked. A blocked request stays pending: Resume re-issues it, Abort
  /// abandons it.
  using Step = std::optional<StatusOr<Value>>;
  Step StartBegin(const engine::TxSpec& spec);
  Step StartRead(EntityId e);
  Step StartWrite(EntityId e, Value value);
  Step StartCommit(uint64_t token = 0);
  Step Resume();
  /// Parks while `step` is blocked and resumes it, until it finishes: the
  /// blocking methods are Await(Start*(...)).
  StatusOr<Value> Await(Step step);
  /// The park's wakeup check without the wait, for a driver that parks the
  /// session itself: kForced when the protocol has doomed the attempt (Abort
  /// it), kWoken when a blocked request may now succeed (consumed here).
  Engine::Signal TakeSignal() { return engine_->TakeSignal(tx_); }

  /// Runtime id of the current, next, or most recent transaction: allocated
  /// by OpenSession, kept after an abort, replaced by the Begin after commit
  /// (or by one naming a later predecessor).
  int tx() const { return tx_; }
  bool in_transaction() const { return active_; }

 private:
  friend class Engine;

  /// Where tx_ stands with the current controller.
  enum class IdState : uint8_t {
    kFresh,       ///< Not registered: opened, or reset after a crash.
    kRegistered,  ///< Registered, not committed: the next Begin reuses it.
    kCommitted,   ///< Terminal: the next Begin allocates a fresh id.
  };

  /// The request a Start* issued that has not finished yet.
  enum class Request : uint8_t { kNone, kBegin, kRead, kWrite, kCommit };

  Session(Engine* engine, int tx, uint64_t generation)
      : engine_(engine), tx_(tx), generation_(generation) {}

  /// Rolls back the active attempt — unless a crash-kill outlived it — and
  /// releases its admission slot.
  void AbortActive();
  /// StartRead / StartWrite.
  Step StartData(Request request, EntityId e, Value value);
  /// Ends the pending request as aborted: rolls the attempt back and drops
  /// the request's commit token.
  Step Fail();
  /// Parks with exponential backoff; false (abort the attempt) on a forced
  /// abort, shutdown, kill, or a blown per-attempt blocked budget.
  bool WaitForTurn(int64_t* poll_us);

  Engine* engine_;
  int tx_;
  bool active_ = false;
  IdState id_state_ = IdState::kFresh;
  /// The controller generation tx_'s state belongs to.
  uint64_t generation_;

  Request pending_ = Request::kNone;
  EntityId pending_entity_ = kInvalidEntity;
  Value pending_value_ = 0;
  uint64_t pending_token_ = 0;
  /// Wall time the pending request has spent parked.
  int64_t blocked_us_ = 0;
};

/// RAII teardown guard: guarantees Engine::Shutdown() on scope exit, so a
/// server (or test) that dies mid-batch still drains the WAL pipeline and
/// joins the writer thread exactly once.
class ScopedEngineShutdown {
 public:
  explicit ScopedEngineShutdown(Engine* engine) : engine_(engine) {}
  ~ScopedEngineShutdown() {
    if (engine_ != nullptr) engine_->Shutdown();
  }

  ScopedEngineShutdown(const ScopedEngineShutdown&) = delete;
  ScopedEngineShutdown& operator=(const ScopedEngineShutdown&) = delete;

 private:
  Engine* engine_;
};

}  // namespace nonserial

#endif  // NONSERIAL_ENGINE_ENGINE_H_
