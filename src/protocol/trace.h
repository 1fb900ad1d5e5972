#ifndef NONSERIAL_PROTOCOL_TRACE_H_
#define NONSERIAL_PROTOCOL_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "predicate/value.h"

namespace nonserial {

/// One observable decision of a concurrency-control protocol. The event
/// stream is the protocol's explanation of itself: which versions each
/// validation chose, which writes triggered Figure 4 re-evaluations, who
/// blocked on which lock, which write arrived too late in timestamp order.
///
/// The event vocabulary is the union of what the shipped protocols decide;
/// each engine emits the subset that applies to it (see the taxonomy table
/// in DESIGN.md). `protocol` tags every event with the emitting engine's
/// name() so a single sink can watch heterogeneous runs (e.g. the nested
/// protocol's scope engines next to its own group events).
struct TraceEvent {
  enum class Kind : uint8_t {
    // Validation / lifecycle (all protocols).
    kValidated,        ///< Attempt admitted: CEP version assignment found;
                       ///< MVTO/PW-MVTO timestamp drawn (`value` = ts).
    kValidationWait,   ///< No satisfying assignment yet / Rv blocked.
    kRead,             ///< Granted read; `value` observed.
    kWrite,            ///< New version created; `value` written.
    // CEP's Figure 4 re-evaluation routine.
    kReEval,           ///< Figure 4 entered for (writer=tx, entity).
    kReAssign,         ///< `tx` re-assigned because of `other`'s write.
    // CEP incremental validation.
    kDeltaRevalidate,  ///< Invalidated optimistic pass re-solved as a
                       ///< delta: unchanged entities pinned to the prior
                       ///< choice, only changed entities re-searched.
    kPoAbort,          ///< `tx` aborted: partial-order invalidation.
    kCascadeAbort,     ///< `tx` aborted: read a rolled-back version.
    kInjectedAbort,    ///< `tx` aborted: fault injection (chaos mode).
    // Termination (all protocols).
    kCommitWait,       ///< `tx` waiting for `other`'s commit.
    kCommitted,
    kAborted,          ///< Abort processed (rollback done).
    kRetired,          ///< `tx` left the live scan set; attempt state
                       ///< reclaimed (CEP transaction retirement).
    // Lock-based protocols (2PL / PW-2PL).
    kLockGrant,        ///< Lock acquired on `entity`.
    kLockBlock,        ///< Lock refused; `tx` waits on the holders.
    kDeadlockVictim,   ///< `tx` aborted: its wait would close a cycle.
    kGroupRelease,     ///< Predicate-wise early release of lock group
                       ///< `other` after the last planned op on `entity`.
    // Timestamp protocols (MVTO / PW-MVTO).
    kTsDraw,           ///< Per-object timestamp drawn lazily (PW-MVTO;
                       ///< `other` = object id, `value` = ts).
    kTsAbort,          ///< Late write: a younger reader already observed
                       ///< the predecessor version of `entity`.
    // Hierarchical scopes (Nested-CEP; `tx` is the group id).
    kGroupStart,       ///< Scope opened: top-level validation succeeded.
    kGroupCommit,      ///< Scope published and durably committed.
    kGroupReset,       ///< Scope torn down; members redo.
    // Durable-log lifecycle (write-ahead log; `tx` = chaos cycle index).
    kCheckpoint,          ///< Checkpoint installed; `value` = txs captured.
    kCompaction,          ///< Segments reclaimed; `value` = segment count.
    kCorruptionDetected,  ///< Recovery found mid-log corruption / lost
                          ///< segment; `value` = records salvaged.
    kWalBatchFlush        ///< Group-commit batch flushed; `value` = frames
                          ///< in the batch, `other` = commit acks resolved,
                          ///< `tx` = 1 if the batch flushed clean, 0 if a
                          ///< media fault failed its acks.
  };

  Kind kind = Kind::kValidated;
  int tx = -1;
  int other = -1;                    ///< Peer tx / lock group / object id.
  EntityId entity = kInvalidEntity;  ///< Where relevant.
  Value value = 0;                   ///< Reads/writes/timestamps.
  std::string protocol;              ///< name() of the emitting engine.

  /// Stable lowercase identifier of a kind ("re-assign", "lock-block", …) —
  /// the spelling used by run reports; treat as API.
  static const char* KindName(Kind kind);

  std::string ToString() const;
};

/// Sink interface; implementations must not call back into the protocol.
///
/// Locking contract: an engine emits while holding its own internal lock
/// (if it has one), so OnEvent must not re-enter the emitting controller.
/// When a sink is attached to an engine driven by concurrent client
/// threads — or to several engines at once — OnEvent may be invoked from
/// many threads and must synchronize itself. The recorder below does; a
/// bespoke sink that only ever observes the single-threaded simulator may
/// skip the lock, but documents that it did.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

/// Records every event in order. Thread-safe: recording from concurrently
/// driven engines (e.g. the parallel driver) needs no external discipline.
/// The zero-copy accessors (`events()`) are for quiesced use — after the
/// driving threads have joined; use snapshot()/size()/Tally() while
/// recording is still in flight.
class TraceRecorder : public TraceSink {
 public:
  void OnEvent(const TraceEvent& event) override {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(event);
  }

  /// Quiesced access (no concurrent OnEvent): the full stream, in order.
  const std::vector<TraceEvent>& events() const { return events_; }

  /// Copy of the stream so far (safe while recording).
  std::vector<TraceEvent> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
  }

  /// Events of one kind, in order (safe while recording).
  std::vector<TraceEvent> OfKind(TraceEvent::Kind kind) const;

  /// Event tallies grouped by protocol tag then kind name — the shape the
  /// run-report layer serializes (see common/report.h).
  std::map<std::string, std::map<std::string, int64_t>> Tally() const;

 private:
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

}  // namespace nonserial

#endif  // NONSERIAL_PROTOCOL_TRACE_H_
