#include <gtest/gtest.h>

#include <memory>

#include "core/verify.h"
#include "sim/parallel_driver.h"
#include "workload/generators.h"

namespace nonserial {
namespace {

DesignWorkloadParams ContentionParams(uint64_t seed) {
  DesignWorkloadParams params;
  params.num_txs = 12;
  params.num_entities = 8;  // Small database: heavy read/write overlap.
  params.num_conjuncts = 2;
  params.reads_per_tx = 3;
  params.think_time = 2;
  params.hot_theta = 0.8;
  params.precedence_prob = 0.25;
  params.seed = seed;
  return params;
}

ParallelDriverConfig DriverConfig(int threads, ProtocolMetrics* metrics) {
  ParallelDriverConfig config;
  config.num_threads = threads;
  config.us_per_tick = 20;  // 2-tick thinks become 40µs client latency.
  config.max_restarts = 80;
  config.max_wall_ms = 60'000;
  config.engine.protocol.metrics = metrics;
  return config;
}

// The headline concurrent-engine test (run under TSan via scripts/ci.sh):
// four client threads drive a contended design workload through one
// protocol instance, and the emitted history must still pass the Section 3
// correctness checker — Theorem 2 with real interleaving.
TEST(ParallelDriverTest, ContendedFourThreadRunVerifies) {
  SimWorkload workload = MakeDesignWorkload(ContentionParams(7));
  ProtocolMetrics metrics;
  ParallelDriver driver(DriverConfig(4, &metrics));
  std::shared_ptr<VersionStore> store;
  std::shared_ptr<CorrectExecutionProtocol> cep;
  ParallelRunResult result = driver.Run(workload, &store, &cep);
  EXPECT_FALSE(result.watchdog_expired);
  EXPECT_GT(result.committed_count, 0);
  EXPECT_GT(result.wall_micros, 0);
  Status verdict =
      VerifyCepHistory(workload, *cep, *store, WorkloadConstraint(workload));
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  // The engine did real validations and the sink saw them.
  EXPECT_GE(metrics.validations.value(), result.committed_count);
}

TEST(ParallelDriverTest, SingleThreadRunCommitsEverything) {
  // One thread drives transactions strictly one-after-another: no
  // concurrency, so nothing can block or abort, and every transaction
  // commits.
  SimWorkload workload = MakeDesignWorkload(ContentionParams(11));
  ParallelDriver driver(DriverConfig(1, nullptr));
  std::shared_ptr<VersionStore> store;
  std::shared_ptr<CorrectExecutionProtocol> cep;
  ParallelRunResult result = driver.Run(workload, &store, &cep);
  EXPECT_TRUE(result.all_committed);
  EXPECT_EQ(result.committed_count, static_cast<int>(workload.txs.size()));
  EXPECT_EQ(result.total_aborts, 0);
  Status verdict =
      VerifyCepHistory(workload, *cep, *store, WorkloadConstraint(workload));
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
}

TEST(ParallelDriverTest, RepeatedRunsStayCorrect) {
  // Interleavings differ run to run; correctness must not.
  for (uint64_t seed : {3, 4, 5}) {
    SimWorkload workload = MakeDesignWorkload(ContentionParams(seed));
    ParallelDriver driver(DriverConfig(3, nullptr));
    std::shared_ptr<VersionStore> store;
    std::shared_ptr<CorrectExecutionProtocol> cep;
    ParallelRunResult result = driver.Run(workload, &store, &cep);
    EXPECT_FALSE(result.watchdog_expired) << "seed " << seed;
    Status verdict =
        VerifyCepHistory(workload, *cep, *store, WorkloadConstraint(workload));
    EXPECT_TRUE(verdict.ok()) << "seed " << seed << ": " << verdict.ToString();
  }
}

TEST(ParallelDriverTest, WatchdogRollsBackAttemptsInFlight) {
  // Long thinks outlast a 20 ms watchdog: the attempts still in flight are
  // rolled back (not abandoned), so no transaction stays active and the
  // committed prefix still verifies.
  SimWorkload workload = MakeDesignWorkload(ContentionParams(7));
  ParallelDriverConfig config = DriverConfig(4, nullptr);
  config.us_per_tick = 20'000;
  config.max_wall_ms = 20;
  ParallelDriver driver(config);
  std::shared_ptr<VersionStore> store;
  std::shared_ptr<CorrectExecutionProtocol> cep;
  ParallelRunResult result = driver.Run(workload, &store, &cep);
  EXPECT_TRUE(result.watchdog_expired);
  EXPECT_FALSE(result.all_committed);
  EXPECT_EQ(cep->WaiterFootprint(), 0u);
  EXPECT_TRUE(cep->PinnedVersions().empty());
  for (EntityId e = 0; e < store->num_entities(); ++e) {
    EXPECT_EQ(store->LatestLiveIndex(e), store->LatestCommittedIndex(e))
        << "uncommitted version left on entity " << e;
  }
  Status verdict =
      VerifyCepHistory(workload, *cep, *store, WorkloadConstraint(workload));
  EXPECT_TRUE(verdict.ok()) << verdict.ToString();
}

}  // namespace
}  // namespace nonserial
