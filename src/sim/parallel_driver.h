#ifndef NONSERIAL_SIM_PARALLEL_DRIVER_H_
#define NONSERIAL_SIM_PARALLEL_DRIVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/span.h"
#include "engine/engine.h"
#include "protocol/cep.h"
#include "sim/simulator.h"
#include "storage/version_store.h"

namespace nonserial {

/// Chaos-mode knobs: crash-restart cycles, forced-abort storms, and the
/// failpoint schedule armed for the run. A chaos run alternates "run the
/// workload for a random window" with "crash-kill the engine and recover
/// the store from the write-ahead log", finishing with one uninterrupted
/// cycle; every recovered history is exposed for re-verification.
struct ChaosConfig {
  bool enabled = false;
  uint64_t seed = 1;
  /// Crash-kill + recover cycles before the final (uninterrupted) run.
  int crash_cycles = 5;
  /// The crash timer for each interrupted cycle is drawn uniformly from
  /// [min_cycle_us, max_cycle_us] of wall time.
  int64_t min_cycle_us = 2'000;
  int64_t max_cycle_us = 20'000;
  /// Forced-abort storm: every interval, `aborts_per_storm` random picks
  /// among the transactions workers hold in an attempt get InjectAbort'ed,
  /// each transaction at most once per cycle. 0 disables storms.
  int64_t abort_storm_interval_us = 1'000;
  int aborts_per_storm = 2;
  /// Failpoints armed for the duration of the chaos run (disarmed after).
  std::vector<std::pair<std::string, FailpointSpec>> failpoints;
};

/// Configuration of the multi-worker driver. Simulated think ticks become
/// *real* sleeps of `us_per_tick` microseconds each — the paper's
/// environment is human-paced CAD clients, so concurrency pays off by
/// overlapping client latency, and the driver reproduces exactly that (it
/// is not a CPU-parallelism benchmark).
struct ParallelDriverConfig {
  int num_threads = 4;
  /// Real microseconds per simulated tick (think times).
  int64_t us_per_tick = 1;
  /// Give-up threshold per transaction.
  int max_restarts = 1000;
  /// Base backoff before an aborted attempt retries (real microseconds).
  int64_t backoff_us = 100;
  /// Watchdog: the run gives up after this much wall time.
  int64_t max_wall_ms = 60'000;
  /// The engine the workload runs on (protocol options, WAL, observer,
  /// blocked-wait policy). `initial` comes from the workload; the controller
  /// must be CEP. RunChaos owns a log when `wal` is null.
  EngineOptions engine;
  /// Per-transaction phase spans in wall-clock µs on a shared timeline
  /// (Chrome trace export, see common/report.h). The timeline's epoch is
  /// its construction time, so one timeline can span all cycles of a chaos
  /// run. Not owned; null disables span recording. Completed phases feed
  /// the span_* histograms of the engine's sink either way.
  SpanTimeline* timeline = nullptr;
  /// Fault-injection mode: storms run whenever it is enabled; crash cycles
  /// and failpoints only under RunChaos.
  ChaosConfig chaos;
};

struct ParallelTxOutcome {
  int aborts = 0;
  bool committed = false;
  bool gave_up = false;  ///< Restart budget or watchdog exhausted.
};

struct ParallelRunResult {
  std::vector<ParallelTxOutcome> tx;
  int committed_count = 0;
  int64_t total_aborts = 0;
  bool all_committed = false;
  bool watchdog_expired = false;
  int64_t wall_micros = 0;

  double CommitsPerSecond() const {
    return wall_micros == 0 ? 0.0
                            : 1e6 * static_cast<double>(committed_count) /
                                  static_cast<double>(wall_micros);
  }
};

/// One crash-recover cycle of a chaos run: what the write-ahead log
/// reconstructed after the kill. `recovered_records` (indexed by tx id)
/// plus `recovered_snapshot` feed the record-level VerifyCepHistory — the
/// acceptance bar is that every cycle's surviving committed prefix is a
/// correct execution.
struct ChaosCycle {
  int64_t wal_records = 0;          ///< Log length at the crash point.
  int64_t wal_bytes = 0;            ///< Durable image bytes at the crash.
  int recovered_committed = 0;      ///< Transactions durably committed.
  int64_t replayed_appends = 0;
  int64_t discarded_appends = 0;    ///< In-flight versions lost to the kill.
  std::vector<CorrectExecutionProtocol::TxRecord> recovered_records;
  ValueVector recovered_snapshot;   ///< Latest committed state after redo.
  // Framed-log recovery diagnostics (see RecoveryResult).
  int64_t frames_scanned = 0;
  int64_t frames_truncated = 0;
  int64_t frames_salvaged = 0;
  bool truncated_tail = false;
  bool corruption_detected = false;
  bool salvaged = false;
  int64_t recovery_micros = 0;
  int64_t segments_reclaimed = 0;       ///< By this cycle's compaction.
  int64_t post_compaction_records = 0;  ///< Log length after compaction
                                        ///< (0 proves the log is bounded).
};

struct ChaosRunResult {
  std::vector<ChaosCycle> cycles;      ///< One per crash-restart.
  ParallelRunResult final_result;      ///< The uninterrupted last cycle.
  size_t leaked_waiters = 0;           ///< Engine waiter-map entries at end.
  int64_t injected_aborts = 0;         ///< Storm + failpoint forced aborts.
};

/// Multi-worker driver: `num_threads` client threads drive the workload's
/// transactions through Sessions of ONE engine hosting CEP — the concurrent
/// counterpart of the deterministic Scheduler (sim/scheduler.h). Transaction i
/// runs on session i, opened in index order on a fresh engine, so it runs as
/// id i in every chaos cycle. The crash timer kills the engine, abandoning
/// every attempt in flight without a rollback; the watchdog shuts it down,
/// rolling those attempts back.
///
/// Requirement: a transaction's P-predecessors must have smaller indices
/// (the generators guarantee this), so commit-rule-1 waits always point at
/// transactions some thread has already claimed.
class ParallelDriver {
 public:
  explicit ParallelDriver(ParallelDriverConfig config = ParallelDriverConfig())
      : config_(std::move(config)) {}

  /// Runs the workload on a private engine built from config.engine, shuts
  /// it down, and hands the store/controller out through `store_out` /
  /// `cep_out` (e.g. for VerifyCepHistory over the records).
  ParallelRunResult Run(
      const SimWorkload& workload,
      std::shared_ptr<VersionStore>* store_out = nullptr,
      std::shared_ptr<CorrectExecutionProtocol>* cep_out = nullptr) const;

  /// Chaos mode: config.chaos.crash_cycles cycles that end by killing the
  /// engine mid-flight and recovering it from the log (Engine::CrashRecover
  /// re-adopts durable commits with their specs and P-edges), then one
  /// uninterrupted cycle. Storms and failpoints run throughout; the caller
  /// re-verifies each ChaosCycle's records and the final history.
  ChaosRunResult RunChaos(
      const SimWorkload& workload,
      std::shared_ptr<VersionStore>* store_out = nullptr,
      std::shared_ptr<CorrectExecutionProtocol>* cep_out = nullptr) const;

 private:
  ParallelDriverConfig config_;
};

}  // namespace nonserial

#endif  // NONSERIAL_SIM_PARALLEL_DRIVER_H_
