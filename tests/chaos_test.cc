// Chaos mode acceptance: four worker threads, failpoints armed, forced
// abort storms, and repeated crash-kill + WAL-recovery cycles. The bar
// (ISSUE acceptance criteria): zero hangs, zero leaked waiter-map
// entries, and every recovered history — plus the final one — accepted
// by the Section 3 correctness checker.

#include <gtest/gtest.h>

#include <memory>

#include "common/failpoint.h"
#include "core/verify.h"
#include "sim/parallel_driver.h"
#include "workload/generators.h"

namespace nonserial {
namespace {

SimWorkload ChaosWorkload(uint64_t seed) {
  DesignWorkloadParams params;
  params.num_txs = 12;
  params.num_entities = 10;
  params.num_conjuncts = 2;
  params.reads_per_tx = 3;
  params.think_time = 5;
  params.arrival_spacing = 0;
  params.precedence_prob = 0.25;
  params.hot_theta = 0.6;
  params.seed = seed;
  return MakeDesignWorkload(params);
}

TEST(ChaosTest, CrashRestartCyclesWithFailpointsStayCorrect) {
  SimWorkload workload = ChaosWorkload(21);
  Predicate constraint = WorkloadConstraint(workload);
  ProtocolMetrics metrics;

  ParallelDriverConfig config;
  config.num_threads = 4;
  config.us_per_tick = 20;  // 5-tick thinks = 100µs: crashes land mid-flight.
  config.max_restarts = 500;
  config.backoff_us = 1;
  config.engine.poll_us = 100;
  config.max_wall_ms = 60'000;
  config.engine.protocol.metrics = &metrics;
  config.chaos.enabled = true;
  config.chaos.seed = 77;
  config.chaos.crash_cycles = 5;
  config.chaos.min_cycle_us = 1'000;
  config.chaos.max_cycle_us = 10'000;
  config.chaos.abort_storm_interval_us = 500;
  config.chaos.aborts_per_storm = 2;
  config.chaos.failpoints = {
      {"cep.pre_validate", FailpointSpec{0.05, 0, -1}},
      {"cep.post_install", FailpointSpec{0.05, 0, -1}},
      {"cep.pre_commit", FailpointSpec{0.05, 0, -1}},
      {"ks.lock_acquire", FailpointSpec{0.05, 0, -1}},
      {"driver.lost_wakeup", FailpointSpec{0.10, 0, -1}},
  };

  ParallelDriver driver(config);
  std::shared_ptr<VersionStore> store;
  std::shared_ptr<CorrectExecutionProtocol> cep;
  ChaosRunResult chaos = driver.RunChaos(workload, &store, &cep);

  // Zero hangs: the final cycle finished inside the watchdog, and with
  // unlimited retries every transaction eventually committed despite the
  // storms and armed failpoints.
  EXPECT_FALSE(chaos.final_result.watchdog_expired);
  EXPECT_TRUE(chaos.final_result.all_committed)
      << chaos.final_result.committed_count << "/" << workload.txs.size()
      << " committed";

  // Five crash-restart cycles ran and each recovered history is a correct
  // execution in its own right.
  ASSERT_EQ(chaos.cycles.size(), 5u);
  EXPECT_EQ(metrics.crash_restarts.value(), 5);
  int prev_recovered = 0;
  for (size_t i = 0; i < chaos.cycles.size(); ++i) {
    const ChaosCycle& cycle = chaos.cycles[i];
    // Durable commits only accumulate across crashes.
    EXPECT_GE(cycle.recovered_committed, prev_recovered) << "cycle " << i;
    prev_recovered = cycle.recovered_committed;
    Status verdict = VerifyCepHistory(workload, cycle.recovered_records,
                                      cycle.recovered_snapshot, constraint);
    EXPECT_TRUE(verdict.ok()) << "cycle " << i << ": " << verdict.ToString();
  }

  // The final engine's history verifies, and its waiter maps drained.
  Status verdict = VerifyCepHistory(workload, *cep, *store, constraint);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(chaos.leaked_waiters, 0u);
  EXPECT_EQ(cep->WaiterFootprint(), 0u);

  // The fault machinery actually engaged.
  EXPECT_GT(chaos.injected_aborts, 0);
  EXPECT_EQ(metrics.injected_aborts.value(), chaos.injected_aborts);
  EXPECT_GT(metrics.recovered_txs.value(), 0);
  // Failpoints disarm on exit.
  EXPECT_FALSE(FailpointRegistry::Global().armed());
}

TEST(ChaosTest, CheckpointCompactionKeepsTheLogBoundedAcrossCycles) {
  // Ten crash-recover cycles with per-cycle checkpoint compaction: the
  // live log must hold at most one cycle's records (the checkpoint
  // absorbs all history), and every recovered state must still verify.
  SimWorkload workload = ChaosWorkload(55);
  Predicate constraint = WorkloadConstraint(workload);
  ProtocolMetrics metrics;
  WriteAheadLog wal(workload.initial);

  ParallelDriverConfig config;
  config.num_threads = 4;
  config.us_per_tick = 20;
  config.max_restarts = 500;
  config.backoff_us = 1;
  config.engine.poll_us = 100;
  config.max_wall_ms = 60'000;
  config.engine.wal = &wal;
  config.engine.protocol.metrics = &metrics;
  config.chaos.enabled = true;
  config.chaos.seed = 91;
  config.chaos.crash_cycles = 10;
  config.chaos.min_cycle_us = 1'000;
  config.chaos.max_cycle_us = 8'000;
  config.chaos.abort_storm_interval_us = 0;  // This test is about the log.

  ParallelDriver driver(config);
  ChaosRunResult chaos = driver.RunChaos(workload);
  EXPECT_FALSE(chaos.final_result.watchdog_expired);
  EXPECT_TRUE(chaos.final_result.all_committed);

  ASSERT_EQ(chaos.cycles.size(), 10u);
  int64_t reclaimed = 0;
  for (size_t i = 0; i < chaos.cycles.size(); ++i) {
    const ChaosCycle& cycle = chaos.cycles[i];
    // Compaction reset the log to a bare checkpoint after every cycle.
    EXPECT_EQ(cycle.post_compaction_records, 0) << "cycle " << i;
    EXPECT_GE(cycle.segments_reclaimed, 1) << "cycle " << i;
    reclaimed += cycle.segments_reclaimed;
    Status verdict = VerifyCepHistory(workload, cycle.recovered_records,
                                      cycle.recovered_snapshot, constraint);
    EXPECT_TRUE(verdict.ok()) << "cycle " << i << ": " << verdict.ToString();
  }
  WalStats stats = wal.stats();
  EXPECT_EQ(stats.checkpoints, 10);
  EXPECT_EQ(stats.compactions, 10);
  EXPECT_EQ(stats.segments_reclaimed, reclaimed);
  EXPECT_EQ(metrics.checkpoint_compactions.value(), 10);
  // Bounded: the live log holds only the final cycle's records, a strict
  // subset of everything ever appended across the eleven runs.
  EXPECT_LT(stats.records, stats.total_records);
  // The surviving image still recovers the full committed outcome.
  RecoveryResult rec = wal.Recover();
  ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
  EXPECT_EQ(static_cast<int>(rec.committed.size()),
            chaos.final_result.committed_count);
}

TEST(ChaosTest, GroupCommitSurvivesCrashCyclesMediaFaultsAndCompaction) {
  // The full PR 5 chaos contract over the PR 6 pipeline: crash-recover
  // cycles with per-cycle compaction and media failpoints, while every
  // frame reaches the medium through the group-commit writer's batched
  // chunk appends. Crashes land with frames in the volatile staging
  // buffer (discarded, never replayed); recovery, salvage, and
  // checkpoint compaction must behave exactly as in sync mode.
  SimWorkload workload = ChaosWorkload(71);
  Predicate constraint = WorkloadConstraint(workload);
  ProtocolMetrics metrics;
  WriteAheadLog wal(workload.initial, /*segment_bytes=*/512);

  ParallelDriverConfig config;
  config.num_threads = 4;
  config.us_per_tick = 20;
  config.max_restarts = 500;
  config.backoff_us = 1;
  config.engine.poll_us = 100;
  config.max_wall_ms = 60'000;
  config.engine.wal = &wal;
  config.engine.wal_group_commit = true;
  config.engine.wal_flush_us = 50;
  config.engine.protocol.metrics = &metrics;
  config.chaos.enabled = true;
  config.chaos.seed = 29;
  config.chaos.crash_cycles = 6;
  config.chaos.min_cycle_us = 1'000;
  config.chaos.max_cycle_us = 8'000;
  config.chaos.abort_storm_interval_us = 0;
  config.chaos.failpoints = {
      {"wal.bit_flip", FailpointSpec{1.0, 5, 1}},
      {"wal.torn_tail", FailpointSpec{1.0, 40, 1}},
  };

  ParallelDriver driver(config);
  ChaosRunResult chaos = driver.RunChaos(workload);
  EXPECT_FALSE(chaos.final_result.watchdog_expired);
  EXPECT_TRUE(chaos.final_result.all_committed);

  ASSERT_EQ(chaos.cycles.size(), 6u);
  for (size_t i = 0; i < chaos.cycles.size(); ++i) {
    const ChaosCycle& cycle = chaos.cycles[i];
    // Compaction still bounds the batched log after every cycle.
    EXPECT_EQ(cycle.post_compaction_records, 0) << "cycle " << i;
    Status verdict = VerifyCepHistory(workload, cycle.recovered_records,
                                      cycle.recovered_snapshot, constraint);
    EXPECT_TRUE(verdict.ok()) << "cycle " << i << ": " << verdict.ToString();
  }
  // The pipeline actually carried the log: batched flushes happened, and
  // the WAL counted them into the engine's sink.
  EXPECT_GT(metrics.group_commit_batches.value(), 0);
  EXPECT_GT(metrics.group_commit_commits.value(), 0);
  EXPECT_LE(metrics.wal_device_flushes.value(),
            metrics.group_commit_batches.value());
  // The surviving image still recovers after the run. Media faults may
  // have fired during the final cycle too, so the durable committed set
  // can trail the engine's (durability loss is not correctness loss) and
  // the image may need best-effort salvage — but never more than the
  // engine committed, and never a failed recovery.
  RecoveryOptions opts;
  opts.best_effort = true;
  RecoveryResult rec = wal.Recover(opts);
  ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
  EXPECT_LE(static_cast<int>(rec.committed.size()),
            chaos.final_result.committed_count);
}

TEST(ChaosTest, MediaFaultsAreSalvagedNeverSilent) {
  // Storage-media failpoints fire while the chaos run logs: a bit flip
  // lands early, a sealed segment vanishes, and a torn write kills the
  // medium mid-cycle. Best-effort recovery (the chaos default) must keep
  // every cycle verifiable and report — never hide — the damage.
  SimWorkload workload = ChaosWorkload(63);
  Predicate constraint = WorkloadConstraint(workload);
  ProtocolMetrics metrics;
  WriteAheadLog wal(workload.initial, /*segment_bytes=*/512);

  ParallelDriverConfig config;
  config.num_threads = 4;
  config.us_per_tick = 20;
  config.max_restarts = 500;
  config.backoff_us = 1;
  config.engine.poll_us = 100;
  config.max_wall_ms = 60'000;
  config.engine.wal = &wal;
  config.engine.protocol.metrics = &metrics;
  config.chaos.enabled = true;
  config.chaos.seed = 17;
  config.chaos.crash_cycles = 6;
  config.chaos.min_cycle_us = 1'000;
  config.chaos.max_cycle_us = 8'000;
  config.chaos.abort_storm_interval_us = 0;
  config.chaos.failpoints = {
      {"wal.bit_flip", FailpointSpec{1.0, 5, 2}},
      {"wal.segment_lost", FailpointSpec{1.0, 1, 1}},
      {"wal.torn_tail", FailpointSpec{1.0, 60, 1}},
  };

  ParallelDriver driver(config);
  std::shared_ptr<VersionStore> store;
  std::shared_ptr<CorrectExecutionProtocol> cep;
  ChaosRunResult chaos = driver.RunChaos(workload, &store, &cep);

  // Liveness: media faults lose durability, never the engine. The final
  // cycle re-runs whatever the damaged log could not prove committed.
  EXPECT_FALSE(chaos.final_result.watchdog_expired);
  EXPECT_TRUE(chaos.final_result.all_committed);

  // The faults actually engaged...
  WalStats stats = wal.stats();
  EXPECT_GT(stats.bit_flips + stats.lost_segments + stats.torn_writes, 0);
  // ...and recovery reported what it found: every cycle verifies, and the
  // cycles that hit damage carry the salvage/truncation flags.
  bool damage_reported = false;
  for (size_t i = 0; i < chaos.cycles.size(); ++i) {
    const ChaosCycle& cycle = chaos.cycles[i];
    damage_reported |= cycle.corruption_detected || cycle.truncated_tail ||
                       cycle.salvaged;
    Status verdict = VerifyCepHistory(workload, cycle.recovered_records,
                                      cycle.recovered_snapshot, constraint);
    EXPECT_TRUE(verdict.ok()) << "cycle " << i << ": " << verdict.ToString();
  }
  EXPECT_TRUE(damage_reported);

  Status verdict = VerifyCepHistory(workload, *cep, *store, constraint);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_FALSE(FailpointRegistry::Global().armed());
}

TEST(ChaosTest, BoundedWaitAbortsBlockedAttemptsAndStillCompletes) {
  // ks.lock_acquire refuses the first 30 Rv/R acquisitions, so validation
  // parks repeatedly; with a 200µs per-attempt blocked budget the driver
  // must cut those waits short (deadline_aborts), retry, and still finish.
  SimWorkload workload = ChaosWorkload(33);
  ProtocolMetrics metrics;
  FailpointSpec spec;
  spec.probability = 1.0;
  spec.max_fires = 30;
  ScopedFailpoint fp("ks.lock_acquire", spec);

  ParallelDriverConfig config;
  config.num_threads = 2;
  config.us_per_tick = 0;
  config.max_restarts = 500;
  config.backoff_us = 1;
  config.engine.poll_us = 50;
  config.engine.max_blocked_us = 200;
  config.max_wall_ms = 60'000;
  config.engine.protocol.metrics = &metrics;
  ParallelDriver driver(config);
  std::shared_ptr<VersionStore> store;
  std::shared_ptr<CorrectExecutionProtocol> cep;
  ParallelRunResult result = driver.Run(workload, &store, &cep);

  EXPECT_FALSE(result.watchdog_expired);
  EXPECT_TRUE(result.all_committed);
  EXPECT_GT(metrics.deadline_aborts.value(), 0);
  Status verdict =
      VerifyCepHistory(workload, *cep, *store, WorkloadConstraint(workload));
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
}

TEST(ChaosTest, LostWakeupsCostLatencyNotLiveness) {
  // Drop EVERY wakeup batch: blocked transactions can only proceed via the
  // exponential-backoff re-poll. The run must still complete — a lost
  // wakeup is a latency bug, never a hang. The workload is built by hand
  // so a wakeup is guaranteed: the successor reaches its commit-rule-1
  // wait long before its slow predecessor commits.
  Predicate domain;
  domain.AddClause(Clause({EntityVsConst(0, CompareOp::kGe, 0)}));
  domain.AddClause(Clause({EntityVsConst(0, CompareOp::kLe, 100)}));
  SimWorkload workload;
  workload.initial = {50};
  SimTx slow;
  slow.name = "slow";
  slow.input = domain;
  slow.output = Predicate::True();
  slow.steps = {SimStep::Read(0), SimStep::Think(200)};
  workload.txs.push_back(slow);
  SimTx successor;
  successor.name = "successor";
  successor.input = domain;
  successor.output = Predicate::True();
  successor.predecessors = {0};
  successor.steps = {SimStep::Read(0)};
  workload.txs.push_back(successor);

  ScopedFailpoint fp("driver.lost_wakeup", FailpointSpec{});

  ParallelDriverConfig config;
  config.num_threads = 2;
  config.us_per_tick = 100;  // The 200-tick think = 20ms of predecessor lag.
  config.max_restarts = 500;
  config.backoff_us = 1;
  config.engine.poll_us = 50;
  config.engine.max_poll_us = 2'000;
  config.max_wall_ms = 60'000;
  ParallelDriver driver(config);
  std::shared_ptr<VersionStore> store;
  std::shared_ptr<CorrectExecutionProtocol> cep;
  ParallelRunResult result = driver.Run(workload, &store, &cep);

  EXPECT_FALSE(result.watchdog_expired);
  EXPECT_TRUE(result.all_committed);
  EXPECT_GT(FailpointRegistry::Global().fires("driver.lost_wakeup"), 0);
  Status verdict = VerifyCepHistory(workload, *cep, *store, domain);
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  EXPECT_EQ(cep->WaiterFootprint(), 0u);
}

}  // namespace
}  // namespace nonserial
