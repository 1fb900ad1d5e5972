#ifndef NONSERIAL_PROTOCOL_CONTROLLER_H_
#define NONSERIAL_PROTOCOL_CONTROLLER_H_

#include <string>
#include <vector>

#include "engine/api.h"
#include "predicate/predicate.h"
#include "predicate/value.h"
#include "protocol/trace.h"

namespace nonserial {

/// The transaction description and per-request result types were promoted
/// into the engine facade (engine/api.h) so the session API, the server,
/// and the controllers share one definition; these aliases keep the
/// controller layer's historical names compiling unchanged.
using TxProfile = engine::TxSpec;
using ReqResult = engine::RequestOutcome;

/// A pluggable concurrency-control protocol, driven through engine Sessions
/// (engine/engine.h). Implementations: the paper's Correct Execution Protocol,
/// strict two-phase locking, multiversion timestamp ordering, and
/// predicate-wise two-phase locking.
///
/// Contract: requests are issued by one logical thread at a time (the
/// engine's serializing decorator) unless the controller
/// is thread_safe(); a kBlocked result parks the transaction until its id
/// is surfaced by TakeWakeups(), after which the *same* request is retried.
/// Controllers may unilaterally kill transactions (re-evaluation, deadlock
/// victims, cascades) by surfacing their ids in TakeForcedAborts().
class ConcurrencyController {
 public:
  virtual ~ConcurrencyController() = default;

  virtual std::string name() const = 0;

  /// True iff transactions may be driven from different threads at once;
  /// the engine serializes every call into a controller that is not.
  virtual bool thread_safe() const { return false; }

  /// Registers transaction `tx` (dense runtime id). Called once, before the
  /// first Begin.
  virtual void Register(int tx, TxProfile profile) = 0;

  /// Starts (or, after an abort, restarts) an attempt. For the Correct
  /// Execution Protocol this is the definition + validation phase.
  virtual ReqResult Begin(int tx) = 0;

  /// Reads an entity; on kGranted, *out holds the value observed.
  virtual ReqResult Read(int tx, EntityId e, Value* out) = 0;

  /// Writes an entity. Granted writes hold their write lock until the
  /// driver calls WriteDone (Session::Write does so at once).
  virtual ReqResult Write(int tx, EntityId e, Value value) = 0;

  /// Signals completion of a granted write (releases short write locks).
  virtual void WriteDone(int tx, EntityId e) = 0;

  /// Attempts to commit. kBlocked means "not yet" (e.g. predecessors still
  /// running); kAborted means the attempt is doomed (failed postcondition).
  virtual ReqResult Commit(int tx) = 0;

  /// Cleans up an aborted attempt (rollback, lock release). The transaction
  /// may be registered and begun again afterwards.
  virtual void Abort(int tx) = 0;

  /// Drains transaction ids that became runnable since the last drain.
  virtual std::vector<int> TakeWakeups() = 0;

  /// Drains transaction ids the controller requires the simulator to abort.
  virtual std::vector<int> TakeForcedAborts() = 0;

  /// Retires a terminated transaction: the controller may drop `tx` from
  /// its live scans and reclaim its per-transaction state. Only legal once
  /// `tx` is committed or idle-after-abort AND no live transaction still
  /// depends on it. Returns true if the transaction was retired (or already
  /// was); false if it is not yet eligible (the caller may retry later) or
  /// the controller does not support retirement (the default).
  virtual bool Retire(int tx) {
    (void)tx;
    return false;
  }

  /// True iff `tx` was retired. Retired ids must not be named as
  /// predecessors of new registrations.
  virtual bool IsRetired(int tx) const {
    (void)tx;
    return false;
  }

  /// Attaches a trace sink receiving every protocol decision (see trace.h
  /// for the event taxonomy and the locking contract). Not owned; must
  /// outlive the controller or be detached with nullptr. Attach before
  /// driving threads start. Virtual so composite controllers (Nested-CEP)
  /// can propagate the sink into their inner scope engines.
  virtual void SetObserver(TraceSink* sink) { sink_ = sink; }

  TraceSink* observer() const { return sink_; }

 protected:
  /// Emits through the attached sink (no-op when detached), stamping the
  /// event with this controller's protocol tag. Engines with an internal
  /// lock call this while holding it; the sink must not call back in.
  void Emit(TraceEvent::Kind kind, int tx, int other = -1,
            EntityId entity = kInvalidEntity, Value value = 0) {
    if (sink_ == nullptr) return;
    TraceEvent event;
    event.kind = kind;
    event.tx = tx;
    event.other = other;
    event.entity = entity;
    event.value = value;
    event.protocol = name();
    sink_->OnEvent(event);
  }

 private:
  TraceSink* sink_ = nullptr;
};

}  // namespace nonserial

#endif  // NONSERIAL_PROTOCOL_CONTROLLER_H_
