// Crash-recovery fuzz: seeded workloads run through the parallel driver
// with a write-ahead log attached (and, on some seeds, a randomized
// failpoint schedule injecting aborts into the protocol's phase
// boundaries). Afterwards the log is "crashed" at random prefixes —
// every prefix is a legal crash point — and each recovery's surviving
// committed set must pass the Section 3 correctness checker. This is the
// durability half of Theorem 2: a crash may lose in-flight work, but the
// state it leaves behind is always some correct execution's.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/failpoint.h"
#include "common/random.h"
#include "core/verify.h"
#include "fuzz_support.h"
#include "sim/parallel_driver.h"
#include "storage/wal.h"
#include "workload/generators.h"

namespace nonserial {
namespace {

SimWorkload TinyWorkload(uint64_t seed) {
  DesignWorkloadParams params;
  params.num_txs = 5;
  params.num_entities = 6;
  params.num_conjuncts = 2;
  params.reads_per_tx = 2;
  params.think_time = 0;
  params.arrival_spacing = 0;
  params.precedence_prob = 0.3;
  params.hot_theta = 0.6;
  params.seed = seed;
  return MakeDesignWorkload(params);
}

/// Recovers the log's first `prefix` records and checks the surviving
/// committed set is a correct execution.
void ExpectPrefixRecoversCorrectly(const SimWorkload& workload,
                                   const WriteAheadLog& wal, size_t prefix,
                                   uint64_t seed) {
  RecoveryResult rec = wal.Recover(prefix);
  Status verdict = VerifyCepHistory(
      workload, RecoveredRecords(rec.committed, workload.txs.size()),
      rec.store->LatestCommittedSnapshot(), WorkloadConstraint(workload));
  EXPECT_TRUE(verdict.ok()) << "seed " << seed << " prefix " << prefix << "/"
                            << wal.size() << ": " << verdict.ToString() << "; "
                            << fuzz::ReproduceHint(seed);
}

TEST(CrashRecoveryFuzzTest, RandomKillPointsAlwaysRecoverCorrectHistories) {
  constexpr int kSeeds = 200;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    if (!fuzz::ShouldRunSeed(seed)) continue;
    SCOPED_TRACE(fuzz::ReproduceHint(seed));
    SimWorkload workload = TinyWorkload(seed);
    WriteAheadLog wal(workload.initial);
    Rng rng(seed * 0x9e3779b9ULL);

    // Every fourth seed runs under a randomized failpoint schedule: the
    // protocol's phase-boundary points fire with small probabilities, so
    // the log also contains histories shaped by injected faults.
    std::vector<std::unique_ptr<ScopedFailpoint>> schedule;
    if (seed % 4 == 0) {
      FailpointRegistry::Global().Seed(seed);
      for (const char* point :
           {"cep.pre_validate", "cep.post_install", "cep.pre_commit",
            "ks.lock_acquire", "driver.lost_wakeup"}) {
        if (!rng.Bernoulli(0.5)) continue;
        FailpointSpec spec;
        spec.probability = 0.1 + 0.2 * rng.NextDouble();
        spec.max_fires = rng.UniformInt(1, 4);
        schedule.push_back(std::make_unique<ScopedFailpoint>(point, spec));
      }
    }

    ParallelDriverConfig config;
    config.num_threads = 2;
    config.us_per_tick = 0;
    config.max_restarts = 60;
    config.backoff_us = 1;
    config.engine.poll_us = 50;
    config.max_wall_ms = 20'000;
    config.engine.wal = &wal;
    // Every third seed logs through the group-commit pipeline: the durable
    // image is then built from batched chunk writes, and every kill point
    // below must still recover a correct history.
    config.engine.wal_group_commit = seed % 3 == 0;
    ParallelDriver driver(config);
    std::shared_ptr<VersionStore> store;
    std::shared_ptr<CorrectExecutionProtocol> cep;
    ParallelRunResult result = driver.Run(workload, &store, &cep);
    ASSERT_FALSE(result.watchdog_expired) << "seed " << seed;
    schedule.clear();  // Disarm before verification.

    // The full log must recover exactly the live engine's outcome...
    size_t log_len = wal.size();
    RecoveryResult full = wal.Recover();
    EXPECT_EQ(static_cast<int>(full.committed.size()), result.committed_count)
        << "seed " << seed;
    EXPECT_EQ(full.store->LatestCommittedSnapshot(),
              store->LatestCommittedSnapshot())
        << "seed " << seed;
    ExpectPrefixRecoversCorrectly(workload, wal, log_len, seed);

    // ...and any random kill point must recover *some* correct history.
    for (int k = 0; k < 4; ++k) {
      size_t prefix =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(log_len)));
      ExpectPrefixRecoversCorrectly(workload, wal, prefix, seed);
    }
  }
}

TEST(CrashRecoveryFuzzTest, RecoveredCommittedSetsAreDownwardClosed) {
  // Commit log order respects both the workload partial order and
  // reads-from, so a crashed prefix can never keep a successor while
  // losing its predecessor or feeder.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    if (!fuzz::ShouldRunSeed(seed)) continue;
    SCOPED_TRACE(fuzz::ReproduceHint(seed));
    SimWorkload workload = TinyWorkload(seed + 1000);
    WriteAheadLog wal(workload.initial);
    ParallelDriverConfig config;
    config.num_threads = 3;
    config.us_per_tick = 0;
    config.max_restarts = 60;
    config.backoff_us = 1;
    config.engine.poll_us = 50;
    config.max_wall_ms = 20'000;
    config.engine.wal = &wal;
    ParallelDriver driver(config);
    ParallelRunResult result = driver.Run(workload);
    ASSERT_FALSE(result.watchdog_expired) << "seed " << seed;
    for (size_t prefix = 0; prefix <= wal.size(); ++prefix) {
      RecoveryResult rec = wal.Recover(prefix);
      std::vector<bool> alive(workload.txs.size(), false);
      for (const RecoveredTx& t : rec.committed) alive[t.tx] = true;
      for (const RecoveredTx& t : rec.committed) {
        for (int pred : workload.txs[t.tx].predecessors) {
          EXPECT_TRUE(alive[pred])
              << "seed " << seed << " prefix " << prefix << ": tx " << t.tx
              << " survived without its predecessor " << pred;
        }
        for (int feeder : t.feeders) {
          EXPECT_TRUE(alive[feeder])
              << "seed " << seed << " prefix " << prefix << ": tx " << t.tx
              << " survived without its feeder " << feeder;
        }
      }
    }
  }
}

TEST(CrashRecoveryFuzzTest, CrashBetweenBatchStageAndBatchFlushLosesOnlyStagedWork) {
  // Group commit's precise new failure mode: frames staged in the volatile
  // buffer when the crash hits never reached the medium. HoldFlushesForTest
  // parks the writer before batch pickup, so everything logged after a
  // random point of the history is staged-but-unflushed at the crash. The
  // invariant: recovery keeps exactly the durably-acked commits, the crash
  // fails every staged ack, and the survivor set is still downward closed
  // (FIFO staging preserves log order).
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    if (!fuzz::ShouldRunSeed(seed)) continue;
    SCOPED_TRACE("seed " + std::to_string(seed) + "; " +
                 fuzz::ReproduceHint(seed));
    Rng rng(seed * 0x51afd6ed558ccd7bULL);
    constexpr int kWriters = 8;
    constexpr int kEntities = 4;
    WriteAheadLog wal(ValueVector(kEntities, 0));
    wal.EnableGroupCommit();

    int hold_after = static_cast<int>(rng.UniformInt(0, kWriters));
    std::vector<bool> acked(kWriters, false);
    std::vector<WalCommitHandle> staged_handles;
    for (int w = 0; w < kWriters; ++w) {
      if (w == hold_after) wal.HoldFlushesForTest(true);
      int appends = static_cast<int>(rng.UniformInt(1, 3));
      std::vector<std::pair<EntityId, Value>> writes;
      for (int a = 0; a < appends; ++a) {
        EntityId e = static_cast<EntityId>(rng.UniformInt(0, kEntities - 1));
        Value v = static_cast<Value>(w * 10 + a + 1);
        wal.LogAppend(e, v, w);
        writes.emplace_back(e, v);
      }
      wal.LogTxPayload(w, "t" + std::to_string(w), ValueVector(kEntities, 0),
                       {}, writes);
      WalCommitHandle h = wal.LogCommit(w);
      if (w < hold_after) {
        ASSERT_TRUE(wal.WaitDurable(h)) << "writer " << w;
        acked[w] = true;
      } else {
        staged_handles.push_back(h);  // Would block; resolve at the crash.
      }
    }
    if (hold_after == kWriters) wal.HoldFlushesForTest(true);

    // Crash between batch-stage and batch-flush.
    wal.LogCrashMarker();
    for (size_t i = 0; i < staged_handles.size(); ++i) {
      EXPECT_FALSE(wal.WaitDurable(staged_handles[i]))
          << "staged commit " << i << " must fail at the crash";
    }
    EXPECT_EQ(wal.metrics()->group_commit_failed_acks.value(),
              static_cast<int64_t>(staged_handles.size()));

    RecoveryResult rec = wal.Recover();
    ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
    std::vector<bool> recovered(kWriters, false);
    for (const RecoveredTx& t : rec.committed) {
      ASSERT_GE(t.tx, 0);
      ASSERT_LT(t.tx, kWriters);
      recovered[t.tx] = true;
    }
    for (int w = 0; w < kWriters; ++w) {
      if (acked[w]) {
        EXPECT_TRUE(recovered[w]) << "acked commit " << w << " lost";
      } else {
        EXPECT_FALSE(recovered[w])
            << "staged commit " << w << " leaked to the durable image";
      }
    }
    wal.HoldFlushesForTest(false);
    wal.DisableGroupCommit();
  }
}

}  // namespace
}  // namespace nonserial
