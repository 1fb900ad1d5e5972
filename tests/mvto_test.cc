#include <gtest/gtest.h>

#include "protocol/mvto.h"

namespace nonserial {
namespace {

TxProfile Profile(const std::string& name, std::vector<int> preds = {},
                  Predicate output = Predicate::True()) {
  TxProfile profile;
  profile.name = name;
  profile.output = std::move(output);
  profile.predecessors = std::move(preds);
  return profile;
}

class MvtoTest : public ::testing::Test {
 protected:
  MvtoTest() : store_({50, 50}), ctrl_(&store_) {}

  VersionStore store_;
  MvtoController ctrl_;
};

TEST_F(MvtoTest, ReadLatestVisibleVersion) {
  ctrl_.Register(0, Profile("t0"));
  ctrl_.Register(1, Profile("t1"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Commit(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 60);
}

TEST_F(MvtoTest, OlderReaderSeesOlderVersion) {
  // t0 begins first (older timestamp), t1 writes and commits; t0 still
  // reads the initial version — the multiversion advantage.
  ctrl_.Register(0, Profile("old"));
  ctrl_.Register(1, Profile("young"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(1, 0, 60), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Commit(1), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(ctrl_.Read(0, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 50);
  EXPECT_EQ(ctrl_.Commit(0), ReqResult::kGranted);
}

TEST_F(MvtoTest, LateWriteAborted) {
  ctrl_.Register(0, Profile("old"));
  ctrl_.Register(1, Profile("young"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kGranted);  // rts(init) = ts1.
  EXPECT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kAborted);  // ts0 < ts1.
  EXPECT_EQ(ctrl_.stats().late_write_aborts, 1);
}

TEST_F(MvtoTest, ReaderWaitsForUncommittedVersion) {
  ctrl_.Register(0, Profile("writer"));
  ctrl_.Register(1, Profile("reader"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
  Value v = 0;
  EXPECT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kBlocked);
  EXPECT_GT(ctrl_.stats().commit_waits, 0);
  ASSERT_EQ(ctrl_.Commit(0), ReqResult::kGranted);
  EXPECT_EQ(ctrl_.TakeWakeups(), (std::vector<int>{1}));
  ASSERT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 60);
}

TEST_F(MvtoTest, ReaderProceedsToOlderVersionAfterWriterAborts) {
  ctrl_.Register(0, Profile("writer"));
  ctrl_.Register(1, Profile("reader"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
  Value v = 0;
  EXPECT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kBlocked);
  ctrl_.Abort(0);
  EXPECT_EQ(ctrl_.TakeWakeups(), (std::vector<int>{1}));
  ASSERT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 50);  // The dead version is gone.
}

TEST_F(MvtoTest, OwnWritesVisible) {
  ctrl_.Register(0, Profile("t0"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(0, 0, 61), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(ctrl_.Read(0, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 61);
}

TEST_F(MvtoTest, BeginChainsOnPredecessors) {
  ctrl_.Register(0, Profile("t0"));
  ctrl_.Register(1, Profile("t1", {0}));
  EXPECT_EQ(ctrl_.Begin(1), ReqResult::kBlocked);
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Commit(0), ReqResult::kGranted);
  EXPECT_EQ(ctrl_.TakeWakeups(), (std::vector<int>{1}));
  EXPECT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
}

TEST_F(MvtoTest, FailedOutputConditionAborts) {
  ctrl_.Register(0, Profile("t0", {}, Range(0, 200, 300)));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kGranted);
  EXPECT_EQ(ctrl_.Commit(0), ReqResult::kAborted);
  ctrl_.Abort(0);
  EXPECT_EQ(store_.LatestCommittedSnapshot(), (ValueVector{50, 50}));
}

TEST_F(MvtoTest, RestartGetsFreshTimestamp) {
  ctrl_.Register(0, Profile("t0"));
  ctrl_.Register(1, Profile("t1"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kAborted);
  ctrl_.Abort(0);
  // After restart t0 is the youngest; the same write now succeeds.
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  EXPECT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kGranted);
}

TEST_F(MvtoTest, WriteAfterCommittedNewerReadStillChecksReadTs) {
  // Reads of *newer committed* versions do not doom older writers of other
  // entities: independence across entities.
  ctrl_.Register(0, Profile("t0"));
  ctrl_.Register(1, Profile("t1"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(ctrl_.Read(1, 1, &v), ReqResult::kGranted);  // y only.
  EXPECT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kGranted);  // x unaffected.
}

}  // namespace
}  // namespace nonserial
