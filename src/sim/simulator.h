#ifndef NONSERIAL_SIM_SIMULATOR_H_
#define NONSERIAL_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "classes/recoverability.h"
#include "common/metrics.h"
#include "model/transaction.h"
#include "predicate/predicate.h"
#include "protocol/controller.h"
#include "protocol/registry.h"
#include "schedule/schedule.h"
#include "storage/version_store.h"

namespace nonserial {

/// Simulated time, in abstract ticks. Long-duration transactions have large
/// think times between operations (modeling humans at CAD workstations);
/// short OLTP transactions have none.
using SimTime = int64_t;

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
  SimTime read_duration = 1;
  SimTime write_duration = 1;
  SimTime restart_backoff = 25;   ///< Delay before an aborted attempt retries.
  int max_restarts = 10000;       ///< Give-up threshold per transaction.
  SimTime max_time = 500'000'000; ///< Watchdog against livelock.
  /// Sink for per-phase spans (span_validate / span_execute /
  /// span_commit_wait / span_terminate), in simulated ticks. Only phases of
  /// committed attempts are recorded. Not owned; null counts into a sink
  /// the Simulator owns (Simulator::metrics()).
  ProtocolMetrics* metrics = nullptr;
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

/// Single-threaded discrete-event simulator driving a set of transaction
/// scripts through a pluggable concurrency controller. This is the
/// substitute for the paper's human-paced CAD environment: waiting, aborted
/// work, and admitted interleavings — the quantities the paper argues about
/// — are measured in simulated time.
class Simulator {
 public:
  explicit Simulator(SimConfig config = SimConfig())
      : config_(config), metrics_(config.metrics) {}

  /// Runs the workload to completion (or watchdog expiry) and returns the
  /// metrics. The version store used during the run is exposed through
  /// `store_out` when non-null (it outlives the call via shared ownership).
  SimResult Run(const SimWorkload& workload, const ControllerFactory& factory,
                std::shared_ptr<VersionStore>* store_out = nullptr,
                std::shared_ptr<ConcurrencyController>* controller_out =
                    nullptr) const;

  /// The sink the span histograms are recorded into (never null).
  ProtocolMetrics* metrics() const { return metrics_.get(); }

 private:
  SimConfig config_;
  MetricsSink metrics_;
};

/// Builds per-transaction planned-op lists (for predicate-wise 2PL).
std::vector<std::vector<std::pair<bool, EntityId>>> PlannedOpsOf(
    const SimWorkload& workload);

/// The registry setup a flat workload supplies: constraint objects and
/// planned operations (Nested-CEP groups come from workload/nested_gen.h).
ProtocolSetup ProtocolSetupOf(const SimWorkload& workload);

}  // namespace nonserial

#endif  // NONSERIAL_SIM_SIMULATOR_H_
