#ifndef NONSERIAL_SIM_SCHEDULER_H_
#define NONSERIAL_SIM_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "classes/recoverability.h"
#include "engine/engine.h"
#include "model/transaction.h"
#include "schedule/schedule.h"

namespace nonserial {

/// Simulated time, in abstract ticks. Long-duration transactions have large
/// think times between operations (modeling humans at CAD workstations);
/// short OLTP transactions have none.
using SimTime = int64_t;

/// One operation of a step program: a Session call, or a pause.
struct ProgramOp {
  enum class Kind : uint8_t { kBegin, kRead, kWrite, kCommit, kAbort, kThink };
  Kind kind = Kind::kBegin;
  EntityId entity = kInvalidEntity;  ///< kRead / kWrite.
  Expr write_expr;  ///< kWrite: over the attempt's earlier reads and writes.
  SimTime after = 0;  ///< Ticks from the grant to the next op (kThink: pause).
};

/// What one session runs: the spec its Begin registers and the ops of one
/// attempt, from a kBegin to a kCommit or kAbort.
struct StepProgram {
  engine::TxSpec spec;
  std::vector<ProgramOp> ops;
  SimTime arrival = 0;  ///< Tick of the first Begin.
};

/// Sessions register a transaction only when it begins, so a spec must
/// list every P-ancestor, not just the direct predecessors, for P+ to stay
/// exact among the registered transactions. Appends to each program's
/// spec.predecessors its further ancestors, in ascending order.
/// Predecessors must have smaller indices than their successors.
void AddAncestors(std::vector<StepProgram>* programs);

/// Issues op `i` of `program` as the session's non-blocking step; a write's
/// value is computed from `view`. A kThink op is done at once, a kAbort op
/// rolls the attempt back.
Session::Step StartOp(Session* session, const StepProgram& program, int i,
                      const ValueVector& view);

/// Runs ops [first, last) of `program` through the session's blocking calls
/// (Session::Await), for a driver that runs each session on its own
/// thread. `view` takes each read and written value; `granted(op, value)`
/// sees every finished op and stops the run by returning false. False when
/// a call failed or `granted` stopped the run.
bool RunOps(Session* session, const StepProgram& program, int first, int last,
            ValueVector* view,
            const std::function<bool(int op, Value value)>& granted);

/// One entry of a run's event log. Attempts count from 0 per lane.
struct LaneEvent {
  enum class Kind : uint8_t {
    kGranted,      ///< Op `op` finished (a kAbort op: rolled back).
    kAborted,      ///< The protocol aborted the attempt at op `op`.
    kForcedAbort,  ///< Rolled back on a forced-abort signal.
    kHalted,       ///< Rolled back unfinished by Scheduler::Halt.
  };
  Kind kind = Kind::kGranted;
  int lane = 0;
  int attempt = 0;
  int op = 0;
  Value value = 0;  ///< kGranted kRead / kWrite: the value read or written.
};

/// The classical-schedule view of a run: the granted read/write operations
/// of every *committed* attempt, in grant order, plus commit points. This
/// bridges the protocol experiments (Section 5) back to the correctness
/// classes (Section 4): an emitted history can be classified against
/// CSR/SR/MVCSR/CPC and the recovery hierarchy directly.
struct EmittedHistory {
  Schedule schedule;
  CommitPoints commits;
  std::vector<TxId> committed;  ///< Transactions included.
};

/// The emitted history of a run of `programs` (lane i is transaction i)
/// from its event log. Uncommitted lanes contribute no ops.
EmittedHistory HistoryOf(const std::vector<StepProgram>& programs,
                         const std::vector<LaneEvent>& events,
                         const std::vector<std::string>& entity_names);

enum class LaneFate : uint8_t { kRunning, kCommitted, kAborted, kHalted };

/// Per-lane outcome, in ticks.
struct LaneStats {
  LaneFate fate = LaneFate::kRunning;
  int aborts = 0;
  SimTime blocked_time = 0;  ///< Parked on blocked requests.
  SimTime begin_time = -1;   ///< First granted Begin.
  SimTime commit_time = -1;
  int64_t wasted_ops = 0;    ///< Granted reads/writes of aborted attempts.
};

struct SchedulerConfig {
  /// An aborted attempt restarts restart_backoff × jitter × growth ticks
  /// later; a lane that aborts more than max_restarts times gives up (so
  /// with 0 the first abort is final).
  SimTime restart_backoff = 0;
  int max_restarts = 0;
  SimTime max_time = std::numeric_limits<SimTime>::max();  ///< Watchdog.
};

/// The deterministic driver: one thread runs N Sessions of one Engine in
/// virtual time, lane i's session opened i-th (so on a fresh engine lane i
/// runs as transaction i). It works in passes over the lanes in index
/// order: a pass runs each lane as far as its authorized, due ops go. A
/// blocked request parks the lane; passes repeat while one makes progress
/// or a parked lane's wakeup flag is set, and each retries every parked
/// lane. After every step, attempts the protocol doomed are rolled back at
/// once. When a pass makes no progress the clock jumps to the next due op.
/// Sessions are driven through their non-blocking steps only; nothing
/// waits, and no thread is started.
class Scheduler {
 public:
  /// `engine` must be fresh and outlive the scheduler.
  Scheduler(Engine* engine, std::vector<StepProgram> programs,
            SchedulerConfig config = SchedulerConfig());

  /// Lets `lane` start ops [0, ops); all are authorized by default.
  void Authorize(int lane, int ops) { lanes_[lane].authorized = ops; }
  /// Runs until no lane can step.
  void Run();
  /// Rolls back every unfinished lane, in index order; a lane an earlier
  /// rollback dooms ends as a forced abort, as in Run. (Destroying the
  /// scheduler closes the sessions, which rolls them back too.)
  void Halt();

  const std::vector<StepProgram>& programs() const { return programs_; }
  const LaneStats& stats(int lane) const { return lanes_[lane].stats; }
  const std::vector<LaneEvent>& events() const { return events_; }

 private:
  struct Lane {
    std::unique_ptr<Session> session;
    LaneStats stats;
    int cursor = 0;  ///< Next op, or the parked one.
    int authorized = std::numeric_limits<int>::max();
    SimTime ready_at = 0;
    bool in_attempt = false;  ///< Begin issued, attempt not ended.
    bool parked = false;
    bool woken = false;
    SimTime parked_at = 0;
    int attempt = 0;
    int ops_this_attempt = 0;
    ValueVector view;  ///< Initial state overlaid with this attempt's ops.
  };

  bool Pass();
  bool Step(int i);  ///< True on progress: a grant or an abort.
  void Unpark(Lane* lane);
  void Log(LaneEvent::Kind kind, int i, Value value = 0);
  /// Rolls back the doomed attempts, in waves (a rollback can doom more),
  /// and collects wakeups.
  void SweepSignals();
  /// Ends lane i's rolled-back attempt: restart, or give up.
  void EndAttempt(int i);

  Engine* engine_;
  std::vector<StepProgram> programs_;
  SchedulerConfig config_;
  std::vector<Lane> lanes_;
  SimTime now_ = 0;
  std::vector<LaneEvent> events_;
};

}  // namespace nonserial

#endif  // NONSERIAL_SIM_SCHEDULER_H_
