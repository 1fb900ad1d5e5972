#include <gtest/gtest.h>

#include <algorithm>

#include "protocol/two_phase_locking.h"

namespace nonserial {
namespace {

TxProfile Profile(const std::string& name,
                  std::vector<int> preds = {},
                  Predicate output = Predicate::True()) {
  TxProfile profile;
  profile.name = name;
  profile.output = std::move(output);
  profile.predecessors = std::move(preds);
  return profile;
}

class S2plTest : public ::testing::Test {
 protected:
  S2plTest()
      : store_({50, 50}),
        ctrl_(&store_, TwoPhaseLockingController::Options()) {}

  VersionStore store_;
  TwoPhaseLockingController ctrl_;
};

TEST_F(S2plTest, ReadWriteCommitLifecycle) {
  ctrl_.Register(0, Profile("t0"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(ctrl_.Read(0, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 50);
  ASSERT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kGranted);
  ctrl_.WriteDone(0, 0);
  ASSERT_EQ(ctrl_.Read(0, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 60);  // Own write visible.
  EXPECT_EQ(ctrl_.Commit(0), ReqResult::kGranted);
  EXPECT_EQ(store_.LatestCommittedSnapshot(), (ValueVector{60, 50}));
}

TEST_F(S2plTest, SharedLocksAllowConcurrentReaders) {
  ctrl_.Register(0, Profile("t0"));
  ctrl_.Register(1, Profile("t1"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
  Value v = 0;
  EXPECT_EQ(ctrl_.Read(0, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kGranted);
}

TEST_F(S2plTest, WriterBlocksReaderUntilCommit) {
  ctrl_.Register(0, Profile("writer"));
  ctrl_.Register(1, Profile("reader"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kGranted);
  ctrl_.WriteDone(0, 0);
  Value v = 0;
  EXPECT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kBlocked);
  EXPECT_GT(ctrl_.stats().lock_waits, 0);
  // Lock held to commit — this is the long-duration-wait pathology.
  EXPECT_EQ(ctrl_.Commit(0), ReqResult::kGranted);
  EXPECT_EQ(ctrl_.TakeWakeups(), (std::vector<int>{1}));
  EXPECT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 60);
}

TEST_F(S2plTest, DeadlockDetectedAndRequesterAborted) {
  ctrl_.Register(0, Profile("t0"));
  ctrl_.Register(1, Profile("t1"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(0, 0, 1), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(1, 1, 2), ReqResult::kGranted);
  Value v = 0;
  EXPECT_EQ(ctrl_.Read(0, 1, &v), ReqResult::kBlocked);
  EXPECT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kAborted);  // Would close cycle.
  EXPECT_EQ(ctrl_.stats().deadlock_aborts, 1);
  ctrl_.Abort(1);
  EXPECT_EQ(ctrl_.TakeWakeups(), (std::vector<int>{0}));
  EXPECT_EQ(ctrl_.Read(0, 1, &v), ReqResult::kGranted);
}

TEST_F(S2plTest, BeginChainsOnPredecessors) {
  ctrl_.Register(0, Profile("t0"));
  ctrl_.Register(1, Profile("t1", {0}));
  EXPECT_EQ(ctrl_.Begin(1), ReqResult::kBlocked);
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  EXPECT_EQ(ctrl_.Commit(0), ReqResult::kGranted);
  EXPECT_EQ(ctrl_.TakeWakeups(), (std::vector<int>{1}));
  EXPECT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
}

TEST_F(S2plTest, FailedOutputConditionAborts) {
  ctrl_.Register(0, Profile("t0", {}, Range(0, 200, 300)));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kGranted);
  ctrl_.WriteDone(0, 0);
  EXPECT_EQ(ctrl_.Commit(0), ReqResult::kAborted);
  ctrl_.Abort(0);
  EXPECT_EQ(store_.LatestCommittedSnapshot(), (ValueVector{50, 50}));
}

TEST_F(S2plTest, AbortRollsBackAndReleasesLocks) {
  ctrl_.Register(0, Profile("t0"));
  ctrl_.Register(1, Profile("t1"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kGranted);
  ctrl_.WriteDone(0, 0);
  ctrl_.Abort(0);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
  Value v = 0;
  EXPECT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 50);  // The write is gone.
}

class Pw2plTest : public ::testing::Test {
 protected:
  Pw2plTest() : store_({50, 50}) {
    TwoPhaseLockingController::Options options;
    options.predicatewise = true;
    options.objects = {{0}, {1}};  // x and y in different conjuncts.
    // t0 plans to write x then y; t1 plans to write x.
    options.planned_ops[0] = {{true, 0}, {true, 1}};
    options.planned_ops[1] = {{true, 0}};
    ctrl_ = std::make_unique<TwoPhaseLockingController>(&store_,
                                                        std::move(options));
  }

  VersionStore store_;
  std::unique_ptr<TwoPhaseLockingController> ctrl_;
};

TEST_F(Pw2plTest, GroupLocksReleasedWhenConjunctDone) {
  ctrl_->Register(0, Profile("t0"));
  ctrl_->Register(1, Profile("t1"));
  ASSERT_EQ(ctrl_->Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_->Begin(1), ReqResult::kGranted);
  ASSERT_EQ(ctrl_->Write(0, 0, 60), ReqResult::kGranted);
  // While the write op is still in flight, the group is not yet released.
  EXPECT_EQ(ctrl_->Write(1, 0, 70), ReqResult::kBlocked);
  ctrl_->WriteDone(0, 0);  // x-conjunct done: its locks drop early.
  EXPECT_GT(ctrl_->stats().group_releases, 0);
  EXPECT_EQ(ctrl_->TakeWakeups(), (std::vector<int>{1}));
  // t1 can now write x even though t0 is still running (writing y).
  EXPECT_EQ(ctrl_->Write(1, 0, 70), ReqResult::kGranted);
  ASSERT_EQ(ctrl_->Write(0, 1, 61), ReqResult::kGranted);
  ctrl_->WriteDone(0, 1);
  ctrl_->WriteDone(1, 0);
  EXPECT_EQ(ctrl_->Commit(0), ReqResult::kGranted);
  EXPECT_EQ(ctrl_->Commit(1), ReqResult::kGranted);
  EXPECT_EQ(store_.LatestCommittedSnapshot(), (ValueVector{70, 61}));
}

TEST_F(Pw2plTest, NameReflectsMode) {
  EXPECT_EQ(ctrl_->name(), "PW-2PL");
  VersionStore other({1});
  TwoPhaseLockingController strict(&other,
                                   TwoPhaseLockingController::Options());
  EXPECT_EQ(strict.name(), "S2PL");
}

// Regression: Abort used to leave the aborter's emptied waiter sets behind
// as map entries, so key_waiters_ / commit_waiters_ grew one tombstone per
// contended key (or awaited commit) forever under abort/restart churn.
TEST_F(S2plTest, AbortPrunesEmptyWaiterEntries) {
  ctrl_.Register(0, Profile("holder"));
  ctrl_.Register(1, Profile("waiter", /*preds=*/{0}));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kGranted);
  // t1 waits on t0's commit (precedence) — a commit_waiters_ entry.
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kBlocked);
  EXPECT_GT(ctrl_.WaiterFootprint(), 0u);
  ctrl_.Abort(1);
  // t1 was the only waiter anywhere; its abort must leave no residue.
  EXPECT_EQ(ctrl_.WaiterFootprint(), 0u);
  ctrl_.Abort(0);
  EXPECT_EQ(ctrl_.WaiterFootprint(), 0u);
}

TEST_F(S2plTest, WaiterFootprintStaysFlatUnderAbortChurn) {
  ctrl_.Register(0, Profile("holder"));
  ctrl_.Register(1, Profile("churner"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kGranted);
  // Long abort/restart churn against a held lock: the churner blocks on
  // the same key each round and aborts. Before the fix every round's
  // emptied waiter set survived as a tombstone; the footprint must stay
  // bounded by the single live blocking relationship instead.
  size_t high_water = 0;
  for (int round = 0; round < 1000; ++round) {
    ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
    Value v = 0;
    ASSERT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kBlocked);
    ctrl_.Abort(1);
    high_water = std::max(high_water, ctrl_.WaiterFootprint());
  }
  EXPECT_EQ(high_water, 0u);
  EXPECT_EQ(ctrl_.Commit(0), ReqResult::kGranted);
  EXPECT_EQ(ctrl_.WaiterFootprint(), 0u);
}

}  // namespace
}  // namespace nonserial
