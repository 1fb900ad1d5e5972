#ifndef NONSERIAL_SIM_SIMULATOR_H_
#define NONSERIAL_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/api.h"
#include "model/transaction.h"
#include "predicate/predicate.h"
#include "protocol/controller.h"
#include "protocol/registry.h"
#include "sim/scheduler.h"
#include "storage/version_store.h"

namespace nonserial {

/// One step of a transaction script.
struct SimStep {
  enum class Kind : uint8_t { kRead, kWrite, kThink };

  Kind kind = Kind::kRead;
  EntityId entity = kInvalidEntity;  ///< kRead / kWrite.
  Expr write_expr;                   ///< kWrite: value as f(previous reads).
  SimTime duration = 0;              ///< kThink.

  static SimStep Read(EntityId e);
  static SimStep Write(EntityId e, Expr expr);
  static SimStep Think(SimTime duration);
};

/// A transaction as the simulator drives it: specification, program, and
/// workload-level placement (arrival time, partial-order predecessors).
struct SimTx {
  std::string name;
  Predicate input;   ///< I_t; must mention every entity the script reads.
  Predicate output;  ///< O_t; checked by the controller at commit.
  std::vector<SimStep> steps;
  SimTime arrival = 0;
  std::vector<int> predecessors;   ///< Indices of P-predecessor transactions.
  SimTime think_between_ops = 0;   ///< Human latency after every operation.
};

/// A complete workload: initial database, transactions, and the consistency
/// constraint's objects (used by predicate-wise protocols and by the
/// class-membership analysis of emitted histories).
struct SimWorkload {
  ValueVector initial;
  std::vector<SimTx> txs;
  ObjectSetList objects;
};

struct SimConfig {
  /// Ticks a granted read takes. A granted write takes none: Session::Write
  /// releases its W lock at once.
  SimTime read_duration = 1;
  SimTime restart_backoff = 25;   ///< Delay before an aborted attempt retries.
  int max_restarts = 10000;       ///< Give-up threshold per transaction.
  SimTime max_time = 500'000'000; ///< Watchdog against livelock.
};

/// Per-transaction outcome metrics.
struct TxOutcome {
  int aborts = 0;
  SimTime blocked_time = 0;
  SimTime begin_time = -1;
  SimTime commit_time = -1;
  int64_t wasted_ops = 0;  ///< Operations performed in aborted attempts.
  bool committed = false;
};

/// Aggregate result of one simulation run.
struct SimResult {
  SimTime makespan = 0;
  std::vector<TxOutcome> tx;
  int64_t total_aborts = 0;
  SimTime total_blocked = 0;
  int64_t total_wasted_ops = 0;
  int committed_count = 0;
  bool all_committed = false;
  ValueVector final_state;
  EmittedHistory history;

  double MeanBlocked() const {
    return tx.empty() ? 0.0
                      : static_cast<double>(total_blocked) /
                            static_cast<double>(tx.size());
  }
  /// Committed transactions per 1000 ticks of makespan.
  double Throughput() const {
    return makespan == 0 ? 0.0
                         : 1000.0 * static_cast<double>(committed_count) /
                               static_cast<double>(makespan);
  }
};

/// Runs transaction scripts through Sessions of an Engine hosting a
/// pluggable concurrency controller, in simulated time (sim/scheduler.h).
/// This is the substitute for the paper's human-paced CAD environment:
/// waiting, aborted work, and admitted interleavings — the quantities the
/// paper argues about — are measured in simulated time.
class Simulator {
 public:
  explicit Simulator(SimConfig config = SimConfig()) : config_(config) {}

  /// Runs the workload to completion (or watchdog expiry) and returns the
  /// metrics. Transaction i runs as tx i; its predecessors must have smaller
  /// indices. The version store and the hosted controller (unwrapped, so it
  /// can be downcast) outlive the call through `store_out` and
  /// `controller_out` when non-null.
  SimResult Run(const SimWorkload& workload, const ControllerFactory& factory,
                std::shared_ptr<VersionStore>* store_out = nullptr,
                std::shared_ptr<ConcurrencyController>* controller_out =
                    nullptr) const;

 private:
  SimConfig config_;
};

/// The registry setup a flat workload supplies: constraint objects and each
/// transaction's planned reads and writes (for the 2PL variants). Nested-CEP
/// groups come from workload/nested_gen.h.
ProtocolSetup ProtocolSetupOf(const SimWorkload& workload);

/// The workload's transactions as step programs, transaction i as program
/// i: Begin, the script, Commit. Specs list their predecessors with
/// AddAncestors (sim/scheduler.h), so those must precede their successors
/// in index order. A read takes `read_duration` ticks; every read and write
/// is followed by the script's think time.
std::vector<StepProgram> WorkloadPrograms(const SimWorkload& workload,
                                         SimTime read_duration);

}  // namespace nonserial

#endif  // NONSERIAL_SIM_SIMULATOR_H_
