#ifndef NONSERIAL_PROTOCOL_CEP_H_
#define NONSERIAL_PROTOCOL_CEP_H_

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "graph/digraph.h"
#include "predicate/assignment_search.h"
#include "predicate/eval_cache.h"
#include "protocol/controller.h"
#include "protocol/ks_lock_manager.h"
#include "protocol/trace.h"
#include "storage/version_store.h"

namespace nonserial {

/// The paper's Correct Execution Protocol (Section 5.1): an optimistic
/// multiversion protocol with four phases —
///
///  1. *definition*: the transaction's specification (I_t, O_t) and its
///     place in the partial order are registered;
///  2. *validation*: Rv (read-for-validation) locks are placed on every
///     entity of the input constraint and a version assignment X(t)
///     satisfying I_t is searched over the allowable-version sets D;
///  3. *execution*: reads upgrade Rv -> R and observe the assigned version;
///     writes are never blocked — each creates a new version under a short
///     W lock and triggers the Figure 4 re-evaluation of current readers;
///  4. *termination*: a transaction commits only when its P-predecessors
///     and the authors of every version it actually read have committed and
///     its output condition O_t holds.
///
/// Re-evaluation (Figure 4): when a predecessor W of a reader writes a
/// version the reader should have observed, the reader is re-assigned if it
/// has not yet read the entity (Rv lock), and aborted for partial-order
/// invalidation if it has (R lock). Aborts cascade to transactions that
/// read versions of a rolled-back writer.
///
/// Theorem 2 of the paper: every history this protocol admits is a correct
/// execution; the simulator re-verifies this with the Section 3 checker.
///
/// Thread safety: the engine is a monitor — one internal mutex guards the
/// per-transaction state, the precedence graph, and the waiter maps, so any
/// number of client threads may drive different transactions concurrently.
/// The expensive part of validation (the NP-complete satisfying-assignment
/// search) deliberately runs *outside* the monitor: Begin snapshots the
/// allowable-version candidates plus per-entity chain-size stamps under the
/// lock, searches unlocked, then revalidates the stamps before installing
/// the assignment (a changed stamp or a dead chosen version forces a
/// rescan, counted in metrics as validation_rescans). The Rv locks held
/// throughout make concurrent writes trigger Figure 4 re-evaluation, so the
/// optimistic window never admits an assignment the locked protocol would
/// have rejected.
///
/// Per-transaction calls (Begin/Read/Write/WriteDone/Commit/Abort for one
/// tx id) must stay on a single thread at a time — that thread owns the
/// transaction's phase transitions; the engine protects everything else.
class CorrectExecutionProtocol : public ConcurrencyController {
 public:
  /// Engine knobs; all optional (the defaults run the plain protocol).
  struct Options {
    /// Sink for lock/validation/abort counters; not owned. Null: the
    /// protocol counts into a sink it owns (see metrics()).
    ProtocolMetrics* metrics = nullptr;
    /// Bound on optimistic out-of-lock validation rescans per Begin. Under
    /// a write storm on a hot entity the unlocked search can be invalidated
    /// every pass (livelock); after this many rescans the attempt falls
    /// back to searching inside the engine lock (the locked Figure 4 path),
    /// which cannot be invalidated. Counted as validation_starved.
    int max_validation_rescans = 8;
    /// Test seam: invoked in the unlocked search window of every optimistic
    /// validation attempt (engine lock NOT held). Lets fault-injection
    /// tests deterministically interleave writes mid-validation. Null in
    /// production.
    std::function<void(int tx)> validation_interference;
    /// Memoized conjunct-evaluation cache for the output-condition check
    /// at commit, shareable with post-hoc verification
    /// (predicate/eval_cache.h). The assignment search never probes it. Not
    /// owned; may be null (caching disabled).
    EvalCache* eval_cache = nullptr;
    /// Transaction retirement: terminated transactions whose successors
    /// have all terminated may be dropped from the live scan set (Retire),
    /// bounding AllowableVersions / cascade-scan cost for long-lived
    /// engines. Retired committed writers' versions are summarized by one
    /// baseline candidate per entity — the store's latest committed
    /// version — which is always in the paper's set D for a root-scope
    /// reader (see AllowableVersions). This *restricts* D (fewer optimistic
    /// candidates from the retired past), so admitted histories stay a
    /// subset of the unretired protocol's: CPC-sound, but verdicts for
    /// workloads that read deep version history can differ. Off by default.
    bool retirement = false;
  };

  /// Per-transaction outcome record used to rebuild a model-layer
  /// TreeExecution for formal verification.
  struct TxRecord {
    std::string name;          ///< Profile name (diagnostics only).
    ValueVector input_state;   ///< X(t): parent input overlaid with assigned versions.
    std::set<int> feeder_txs;  ///< Authors of assigned versions (excluding t_0).
    std::vector<std::pair<EntityId, Value>> writes;  ///< In program order.
    bool committed = false;    ///< True once the commit record was cut.

    /// The record of a commit recovered from the write-ahead log.
    static TxRecord Recovered(const RecoveredTx& t);
  };

  /// Binds the engine to a store with default options. Not owned; the
  /// store must outlive the engine.
  explicit CorrectExecutionProtocol(VersionStore* store);
  /// As above with explicit options (metrics/cache pointers not owned).
  CorrectExecutionProtocol(VersionStore* store, Options options);

  std::string name() const override { return "CEP"; }
  bool thread_safe() const override { return true; }
  void Register(int tx, TxProfile profile) override;
  ReqResult Begin(int tx) override;
  ReqResult Read(int tx, EntityId e, Value* out) override;
  ReqResult Write(int tx, EntityId e, Value value) override;
  void WriteDone(int tx, EntityId e) override;
  ReqResult Commit(int tx) override;
  void Abort(int tx) override;
  std::vector<int> TakeWakeups() override;
  std::vector<int> TakeForcedAborts() override;

  /// Retires `tx` (Options::retirement must be on): drops it from the live
  /// scan set and reclaims its heavy per-attempt state (assignment, views,
  /// write log) — the committed TxRecord in records() survives for the
  /// verifier. Eligible only when the transaction is terminal (committed,
  /// or idle after an abort) and every direct P-successor is already
  /// retired; by induction no *live* transaction is then a successor of a
  /// retired one, which is what keeps the predecessor-domination and
  /// shadowing scans complete over the live set alone. Returns false when
  /// ineligible (caller retries after the successors terminate).
  bool Retire(int tx) override;
  bool IsRetired(int tx) const override;

  /// Attaches a client idempotency token to `tx`'s next commit: CommitLocked
  /// logs it as a kCommitToken WAL record immediately before the tx payload,
  /// so the token is durable iff the commit is. 0 clears (no token).
  void SetCommitToken(int tx, uint64_t token);

  /// The sink every lock, validation, Figure 4 and abort event is counted
  /// into: Options::metrics, or the protocol's own.
  ProtocolMetrics* metrics() const { return metrics_.get(); }

  /// Re-assigns of Figure 4 that found no assignment (each also counts as
  /// a cascade abort).
  int64_t reassign_failures() const {
    return reassign_failures_.load(std::memory_order_relaxed);
  }

  /// Records for committed transactions (indexed by tx id; uncommitted
  /// transactions have committed == false). Only safe once driving threads
  /// have quiesced — the verifier runs after the drivers join.
  const std::vector<TxRecord>& records() const { return records_; }

  // Trace emission uses the base-interface SetObserver (controller.h);
  // events are emitted under the engine lock, in decision order.

  /// The input version state X(t) currently assigned to an executing
  /// transaction (nullptr before validation or after termination). Used by
  /// the hierarchical protocol to seed a child scope. Single-threaded use
  /// only (returns a pointer into engine state).
  const ValueVector* InputView(int tx) const;

  /// True iff the transaction has committed.
  bool IsCommitted(int tx) const;

  /// Fault injection: dooms an in-flight attempt of `tx` exactly like a
  /// Figure 4 invalidation would (no-op if tx is idle or committed). The
  /// owning thread observes the forced-abort signal and processes the
  /// Abort itself; counted as injected_aborts. Used by chaos mode.
  void InjectAbort(int tx);

  /// Crash recovery: marks a registered transaction committed and adopts
  /// its durable commit record (from WAL recovery). The recovered store
  /// must already contain the transaction's committed versions. Call after
  /// Register and before driving threads start.
  void RestoreCommitted(int tx, TxRecord record);

  /// Total number of map entries across the waiter maps (validation, read,
  /// commit). Must be zero once every transaction has committed or
  /// aborted — leaked entries here are unbounded memory growth under churn.
  size_t WaiterFootprint() const;

  /// Version references currently assigned to validating or executing
  /// transactions — the pin set for VersionStore::CollectObsolete.
  std::vector<VersionRef> PinnedVersions() const;

 private:
  enum class Phase {
    kIdle,        ///< Registered, no active attempt.
    kValidating,  ///< Begin in progress (Rv locks / searching versions).
    kExecuting,   ///< Version assignment done; reads/writes flowing.
    kCommitted,
  };

  struct TxState {
    TxProfile profile;
    Phase phase = Phase::kIdle;
    /// Set by ForceAbort (Figure 4 invalidation or cascade): the attempt
    /// must not commit. Commit checks this under the engine lock, so a
    /// forced abort and a racing Commit from the owning thread serialize
    /// correctly even after the driver drained the signal. Cleared when the
    /// owner processes the Abort.
    bool doomed = false;
    std::set<EntityId> input_entities;        ///< N_t.
    std::map<EntityId, VersionRef> assigned;  ///< X(t) over N_t.
    std::set<EntityId> reads_done;            ///< Entities actually read.
    std::map<EntityId, int> own_latest;       ///< Own latest version index.
    std::vector<std::pair<EntityId, Value>> write_log;
    ValueVector input_view;  ///< X(t) as a full vector.
    ValueVector local_view;  ///< input_view overlaid with own writes.
    /// Client idempotency token for the next commit (0 = none). Cleared
    /// with the rest of the attempt state on abort — a retried attempt must
    /// re-announce its token.
    uint64_t commit_token = 0;
    /// Precomputed clause hashes of the output condition, bound to
    /// Options::eval_cache (null when caching is off). Shared_ptr so the
    /// abort-time state reset can carry it over without rehashing; it
    /// depends only on predicate *structure*, which Register fixed.
    std::shared_ptr<const CachedPredicate> cached_output;
  };

  /// Candidate snapshot for one optimistic validation attempt: per-entity
  /// refs/values plus the chain-size stamps they were gathered under. The
  /// values live in one columnar arena (candidate_buffer.h) — the search
  /// consumes them as contiguous stripes without re-materialization.
  struct CandidateSnapshot {
    std::vector<std::vector<VersionRef>> refs;  ///< Per entity.
    CandidateBuffer values;                     ///< Parallel to refs.
    std::map<EntityId, int> stamps;             ///< ChainSize per N_t entity.
  };

  bool Reaches(int from, int to) const;  ///< P+ over registered txs.

  /// Computes the allowable-version candidates for entity `e` as seen by
  /// `tx` (the set D of Section 5.1), optionally pinning the candidate set
  /// to a specific version (re-assign) via `pin`.
  std::vector<VersionRef> AllowableVersions(int tx, EntityId e) const;

  /// Gathers the candidate sets for `tx` under the engine lock.
  CandidateSnapshot GatherCandidates(
      int tx, const std::map<EntityId, VersionRef>& pinned) const;

  /// True iff the snapshot still reflects the store: stamps unchanged and
  /// the chosen refs alive. Caller holds the engine lock.
  bool SnapshotStillValid(const CandidateSnapshot& snapshot,
                          const std::vector<int>& choice) const;

  /// Installs a found assignment into `tx`'s state. Caller holds the lock.
  void InstallAssignment(int tx, const CandidateSnapshot& snapshot,
                         const std::vector<int>& choice);

  /// Runs the version-assignment search for `tx` with per-entity pinned
  /// refs (entities already read, or the re-assign target) synchronously
  /// under the engine lock. Returns true and installs on success.
  bool SolveAssignment(int tx, const std::map<EntityId, VersionRef>& pinned);

  /// Figure 4: reacts to `writer` creating a new version of `e`.
  void ReEvaluate(int writer, EntityId e);

  /// Re-assign of Figure 4: `reader` must adopt `writer`'s latest version
  /// of `e`; unread entities may be re-chosen. On failure the reader is
  /// force-aborted.
  void ReAssign(int reader, int writer, EntityId e);

  /// Commit body, under the engine lock. On kGranted, `*durable` holds the
  /// WAL ack the caller redeems AFTER dropping the lock (so committers can
  /// share a group-commit flush instead of serializing on the monitor).
  ReqResult CommitLocked(int tx, WalCommitHandle* durable);

  void WakeValidationWaiters(EntityId e);
  void Wake(int tx);

  /// Shared tail of a successful validation (either search path): counters,
  /// phase transition, and removal of stale waiter registrations left by
  /// earlier blocked attempts of `tx`. Caller holds the engine lock.
  ReqResult GrantValidation(int tx);

  /// Removes `tx` from every waiter map, pruning entries whose sets empty
  /// out (leaked empty entries grow without bound under churn).
  void DropWaiterEntries(int tx);
  /// Dooms `tx`'s attempt and counts it under `reason`: kPoAbort,
  /// kInjectedAbort, or otherwise a cascade abort.
  void ForceAbort(int tx, TraceEvent::Kind reason);

  /// True iff making `tx` wait for `target`'s commit closes a wait cycle.
  bool WouldDeadlock(int tx, int target) const;

  VersionStore* store_;
  Options options_;
  MetricsSink metrics_;
  KsLockManager locks_;

  /// Engine lock (monitor). Ordering: mu_ may be held while taking the
  /// store's mutex (and, through it, the WAL's) or the lock manager's
  /// mutex, never the other way around (neither component calls back into
  /// the engine).
  mutable std::mutex mu_;

  /// Deque, not vector, on purpose: sessions Register new transactions
  /// while other transactions' validation searches run outside the engine
  /// lock holding references into their own TxState (Begin's out-of-lock
  /// window). Deque growth never relocates existing elements, so those
  /// references stay valid; a vector's resize would dangle them.
  std::deque<TxState> txs_;
  std::vector<TxRecord> records_;
  /// Registered, unretired transaction ids — the scan set for
  /// AllowableVersions, the abort cascade, and PinnedVersions when
  /// Options::retirement is on (always maintained; cheap either way).
  std::set<int> live_;
  std::vector<char> retired_;  ///< Parallel to txs_; sticky once set.
  Digraph precedence_;  ///< P over transaction ids.
  ValueVector initial_snapshot_;

  /// Entities each blocked-in-validation transaction is waiting on.
  std::map<int, std::set<EntityId>> validation_waiters_;
  /// Readers blocked on an active W lock, per entity.
  std::map<EntityId, std::set<int>> read_waiters_;
  /// Transactions waiting for another transaction's commit.
  std::map<int, std::set<int>> commit_waiters_;

  std::set<int> wakeups_;
  std::set<int> forced_aborts_;
  std::atomic<int64_t> reassign_failures_{0};
};

/// The records of a recovery's committed transactions, indexed by tx id
/// over at least `num_txs` slots (the shape VerifyCepHistory takes).
std::vector<CorrectExecutionProtocol::TxRecord> RecoveredRecords(
    const std::vector<RecoveredTx>& committed, size_t num_txs);

}  // namespace nonserial

#endif  // NONSERIAL_PROTOCOL_CEP_H_
