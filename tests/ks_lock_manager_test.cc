#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "protocol/ks_lock_manager.h"

namespace nonserial {
namespace {

// Figure 3, row by row: Rv/R requests against Rv/R holders are compatible.
TEST(KsLockManagerTest, ReadersAreMutuallyCompatible) {
  KsLockManager locks(1);
  EXPECT_EQ(locks.Acquire(1, 0, KsLockMode::kRv), KsLockOutcome::kGranted);
  EXPECT_EQ(locks.Acquire(2, 0, KsLockMode::kRv), KsLockOutcome::kGranted);
  EXPECT_EQ(locks.Acquire(3, 0, KsLockMode::kR), KsLockOutcome::kGranted);
  EXPECT_TRUE(locks.HoldsRv(1, 0));
  EXPECT_TRUE(locks.HoldsRv(2, 0));
  EXPECT_TRUE(locks.HoldsR(3, 0));
}

// Figure 3: Rv/R against an active W is "false" — the requester blocks.
TEST(KsLockManagerTest, ReadersBlockOnActiveWriter) {
  KsLockManager locks(1);
  EXPECT_EQ(locks.Acquire(1, 0, KsLockMode::kW), KsLockOutcome::kGranted);
  EXPECT_EQ(locks.Acquire(2, 0, KsLockMode::kRv), KsLockOutcome::kBlocked);
  EXPECT_EQ(locks.Acquire(2, 0, KsLockMode::kR), KsLockOutcome::kBlocked);
  EXPECT_FALSE(locks.HoldsRv(2, 0));
}

// Figure 3: W against W is "true" — concurrent writers each make their own
// version and never block.
TEST(KsLockManagerTest, WritersNeverBlockEachOther) {
  KsLockManager locks(1);
  EXPECT_EQ(locks.Acquire(1, 0, KsLockMode::kW), KsLockOutcome::kGranted);
  EXPECT_EQ(locks.Acquire(2, 0, KsLockMode::kW), KsLockOutcome::kGranted);
}

// Figure 3: W against Rv/R is "re-eval" — granted, but readers must be
// re-evaluated.
TEST(KsLockManagerTest, WriteAgainstReadersIsReEval) {
  KsLockManager locks(1);
  EXPECT_EQ(locks.Acquire(1, 0, KsLockMode::kRv), KsLockOutcome::kGranted);
  EXPECT_EQ(locks.Acquire(2, 0, KsLockMode::kW), KsLockOutcome::kReEval);
  // The readers to re-evaluate.
  EXPECT_EQ(locks.Readers(0), (std::vector<int>{1}));
}

TEST(KsLockManagerTest, OwnLocksDoNotConflict) {
  KsLockManager locks(1);
  EXPECT_EQ(locks.Acquire(1, 0, KsLockMode::kRv), KsLockOutcome::kGranted);
  EXPECT_EQ(locks.Acquire(1, 0, KsLockMode::kW), KsLockOutcome::kGranted);
  // Own W lock does not block own read upgrade.
  EXPECT_EQ(locks.UpgradeToRead(1, 0), KsLockOutcome::kGranted);
}

TEST(KsLockManagerTest, UpgradeBlockedByForeignWriter) {
  KsLockManager locks(1);
  EXPECT_EQ(locks.Acquire(1, 0, KsLockMode::kRv), KsLockOutcome::kGranted);
  EXPECT_EQ(locks.Acquire(2, 0, KsLockMode::kW), KsLockOutcome::kReEval);
  EXPECT_EQ(locks.UpgradeToRead(1, 0), KsLockOutcome::kBlocked);
  locks.ReleaseWrite(2, 0);
  EXPECT_EQ(locks.UpgradeToRead(1, 0), KsLockOutcome::kGranted);
}

TEST(KsLockManagerTest, ReleaseWriteIsPerHold) {
  KsLockManager locks(1);
  locks.Acquire(1, 0, KsLockMode::kW);
  locks.Acquire(1, 0, KsLockMode::kW);  // Two write ops in flight.
  locks.ReleaseWrite(1, 0);
  EXPECT_TRUE(locks.HasActiveWriter(0));
  locks.ReleaseWrite(1, 0);
  EXPECT_FALSE(locks.HasActiveWriter(0));
}

TEST(KsLockManagerTest, ReleaseAllClearsEveryMode) {
  KsLockManager locks(2);
  locks.Acquire(1, 0, KsLockMode::kRv);
  locks.UpgradeToRead(1, 0);
  locks.Acquire(1, 1, KsLockMode::kW);
  locks.ReleaseAll(1);
  EXPECT_FALSE(locks.HoldsRv(1, 0));
  EXPECT_FALSE(locks.HoldsR(1, 0));
  EXPECT_FALSE(locks.HasActiveWriter(1));
}

TEST(KsLockManagerTest, HasActiveWriterExcludesSelf) {
  KsLockManager locks(1);
  locks.Acquire(1, 0, KsLockMode::kW);
  EXPECT_TRUE(locks.HasActiveWriter(0));
  EXPECT_FALSE(locks.HasActiveWriter(0, /*other_than=*/1));
}

TEST(KsLockManagerTest, ReadersListsRvAndRHoldersOnce) {
  KsLockManager locks(1);
  locks.Acquire(1, 0, KsLockMode::kRv);
  locks.UpgradeToRead(1, 0);  // Holds both Rv and R.
  locks.Acquire(2, 0, KsLockMode::kRv);
  EXPECT_EQ(locks.Readers(0), (std::vector<int>{1, 2}));
}

// Regression: a transaction that writes the same entity twice and then
// aborts (ReleaseAll without any ReleaseWrite) must leave zero W holds —
// a stale hold would block every later reader of the entity forever.
TEST(KsLockManagerTest, ReleaseAllClearsStackedWriteHolds) {
  KsLockManager locks(1);
  locks.Acquire(1, 0, KsLockMode::kW);
  locks.Acquire(1, 0, KsLockMode::kW);  // Same entity, second write in flight.
  EXPECT_EQ(locks.WriteHolds(1, 0), 2);
  locks.ReleaseAll(1);  // Abort path: no WriteDone was issued.
  EXPECT_EQ(locks.WriteHolds(1, 0), 0);
  EXPECT_FALSE(locks.HasActiveWriter(0));
  EXPECT_EQ(locks.Acquire(2, 0, KsLockMode::kRv), KsLockOutcome::kGranted);
}

// Regression: interleaving one ReleaseWrite with an abort must not
// underflow or leave a stale hold, and ReleaseAll must only clear the
// aborting transaction's holds.
TEST(KsLockManagerTest, ReleaseAllIsPerTransaction) {
  KsLockManager locks(1);
  locks.Acquire(1, 0, KsLockMode::kW);
  locks.Acquire(1, 0, KsLockMode::kW);
  locks.Acquire(2, 0, KsLockMode::kW);
  locks.ReleaseWrite(1, 0);  // First write completed normally...
  EXPECT_EQ(locks.WriteHolds(1, 0), 1);
  locks.ReleaseAll(1);  // ...then the transaction aborts mid-second-write.
  EXPECT_EQ(locks.WriteHolds(1, 0), 0);
  EXPECT_EQ(locks.WriteHolds(2, 0), 1);  // Unaffected bystander.
  EXPECT_TRUE(locks.HasActiveWriter(0));
  locks.ReleaseWrite(2, 0);
  EXPECT_FALSE(locks.HasActiveWriter(0));
}

TEST(KsLockManagerTest, RepeatedAcquireReleaseCyclesStayBalanced) {
  KsLockManager locks(2);
  for (int round = 0; round < 3; ++round) {
    locks.Acquire(1, 0, KsLockMode::kW);
    locks.Acquire(1, 1, KsLockMode::kW);
    locks.Acquire(1, 0, KsLockMode::kW);
    locks.ReleaseAll(1);
    EXPECT_EQ(locks.WriteHolds(1, 0), 0) << "round " << round;
    EXPECT_EQ(locks.WriteHolds(1, 1), 0) << "round " << round;
  }
}

TEST(KsLockManagerTest, MetricsCountOutcomes) {
  ProtocolMetrics metrics;
  KsLockManager locks(1, &metrics);
  locks.Acquire(1, 0, KsLockMode::kRv);  // Grant.
  locks.Acquire(2, 0, KsLockMode::kW);   // Re-eval (reader present).
  locks.Acquire(3, 0, KsLockMode::kR);   // Blocked (active writer).
  EXPECT_EQ(metrics.lock_grants.value(), 1);
  EXPECT_EQ(metrics.lock_reevals.value(), 1);
  EXPECT_EQ(metrics.lock_blocks.value(), 1);
}

// Concurrency smoke over the lock table: disjoint transactions hammer
// overlapping entities. (Run under TSan via scripts/ci.sh.)
TEST(KsLockManagerConcurrencyTest, ParallelAcquireRelease) {
  constexpr int kEntities = 16;
  constexpr int kThreads = 4;
  KsLockManager locks(kEntities);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&locks, t] {
      for (int i = 0; i < 200; ++i) {
        EntityId e = (t * 3 + i) % kEntities;
        locks.Acquire(t, e, KsLockMode::kW);
        locks.ReleaseWrite(t, e);
        if (locks.Acquire(t, e, KsLockMode::kRv) ==
            KsLockOutcome::kGranted) {
          locks.Readers(e);
        }
        locks.ReleaseAll(t);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (EntityId e = 0; e < kEntities; ++e) {
    EXPECT_FALSE(locks.HasActiveWriter(e));
    EXPECT_TRUE(locks.Readers(e).empty());
  }
}

}  // namespace
}  // namespace nonserial
