#include <gtest/gtest.h>

#include "protocol/nested_cep.h"

namespace nonserial {
namespace {

TxProfile Profile(const std::string& name, Predicate input,
                  std::vector<int> preds = {},
                  Predicate output = Predicate::True()) {
  TxProfile profile;
  profile.name = name;
  profile.input = std::move(input);
  profile.output = std::move(output);
  profile.predecessors = std::move(preds);
  return profile;
}

NestedGroup Group(const std::string& name, Predicate input,
                  Predicate output = Predicate::True(),
                  std::vector<int> preds = {}) {
  NestedGroup g;
  g.name = name;
  g.input = std::move(input);
  g.output = std::move(output);
  g.predecessors = std::move(preds);
  return g;
}

// Two groups over entities x=0 (group A) and y=1 (group B); two members
// each.
class NestedCepTest : public ::testing::Test {
 protected:
  NestedCepTest() : store_({50, 50}) {
    NestedCepController::Options options;
    options.groups = {Group("A", Range(0, 0, 100)),
                      Group("B", Range(1, 0, 100))};
    options.group_of_tx = {0, 0, 1, 1};
    ctrl_ = std::make_unique<NestedCepController>(&store_,
                                                  std::move(options));
    ctrl_->Register(0, Profile("a0", Range(0, 0, 100)));
    ctrl_->Register(1, Profile("a1", Range(0, 0, 100)));
    ctrl_->Register(2, Profile("b0", Range(1, 0, 100)));
    ctrl_->Register(3, Profile("b1", Range(1, 0, 100)));
  }

  VersionStore store_;
  std::unique_ptr<NestedCepController> ctrl_;
};

TEST_F(NestedCepTest, GroupStartsOnFirstMemberBegin) {
  EXPECT_FALSE(ctrl_->GroupActive(0));
  ASSERT_EQ(ctrl_->Begin(0), ReqResult::kGranted);
  EXPECT_TRUE(ctrl_->GroupActive(0));
  EXPECT_FALSE(ctrl_->GroupActive(1));
  EXPECT_EQ(ctrl_->stats().group_starts, 1);
}

TEST_F(NestedCepTest, MembersShareScopeVersions) {
  ASSERT_EQ(ctrl_->Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_->Begin(1), ReqResult::kGranted);
  ASSERT_EQ(ctrl_->Write(0, 0, 60), ReqResult::kGranted);
  ctrl_->WriteDone(0, 0);
  (void)ctrl_->TakeWakeups();
  // a1 validated against the seed; a0's write is visible in-scope only
  // after a1 revalidates or if a1's constraint pulls it in. Read returns
  // a1's assigned version (the seed 50) — multiversion isolation inside
  // the scope.
  Value v = 0;
  ASSERT_EQ(ctrl_->Read(1, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 50);
}

TEST_F(NestedCepTest, MemberCommitIsRelativeUntilGroupCommits) {
  ASSERT_EQ(ctrl_->Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_->Begin(1), ReqResult::kGranted);
  ASSERT_EQ(ctrl_->Write(0, 0, 60), ReqResult::kGranted);
  ctrl_->WriteDone(0, 0);
  // First member finishes: blocked until the sibling does.
  EXPECT_EQ(ctrl_->Commit(0), ReqResult::kBlocked);
  // The parent store is untouched — nothing published yet.
  EXPECT_EQ(store_.LatestCommittedSnapshot(), (ValueVector{50, 50}));
  // Second member finishes: the group publishes and commits.
  EXPECT_EQ(ctrl_->Commit(1), ReqResult::kGranted);
  EXPECT_TRUE(ctrl_->GroupCommitted(0));
  EXPECT_EQ(store_.LatestCommittedSnapshot(), (ValueVector{60, 50}));
  // The parked first member is woken and its commit is now durable.
  std::vector<int> wakeups = ctrl_->TakeWakeups();
  EXPECT_TRUE(std::find(wakeups.begin(), wakeups.end(), 0) != wakeups.end());
  EXPECT_EQ(ctrl_->Commit(0), ReqResult::kGranted);
}

TEST_F(NestedCepTest, CrossGroupIsolationUntilPublication) {
  ASSERT_EQ(ctrl_->Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_->Write(0, 0, 77), ReqResult::kGranted);
  ctrl_->WriteDone(0, 0);
  // Group B starts while A is mid-flight: B's view of x is the initial 50
  // (its scope was seeded before A published anything).
  ASSERT_EQ(ctrl_->Begin(2), ReqResult::kGranted);
  ASSERT_EQ(ctrl_->Begin(3), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(ctrl_->Read(2, 1, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 50);
  // B commits without ever seeing A's uncommitted 77.
  EXPECT_EQ(ctrl_->Commit(2), ReqResult::kBlocked);
  EXPECT_EQ(ctrl_->Commit(3), ReqResult::kGranted);
  EXPECT_EQ(store_.LatestCommittedSnapshot()[0], 50);
}

TEST_F(NestedCepTest, GroupOutputPredicateFailureResetsScope) {
  VersionStore store({50});
  NestedCepController::Options options;
  Predicate impossible = Range(0, 200, 300);
  options.groups = {Group("doomed", Range(0, 0, 100), impossible)};
  options.group_of_tx = {0};
  NestedCepController ctrl(&store, std::move(options));
  ctrl.Register(0, Profile("m", Range(0, 0, 100)));
  ASSERT_EQ(ctrl.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl.Write(0, 0, 60), ReqResult::kGranted);
  ctrl.WriteDone(0, 0);
  // The member's group-commit succeeds but O_G fails at the top: the whole
  // scope resets and the write never becomes durable.
  EXPECT_EQ(ctrl.Commit(0), ReqResult::kAborted);
  EXPECT_EQ(ctrl.stats().group_resets, 1);
  ctrl.Abort(0);
  EXPECT_EQ(store.LatestCommittedSnapshot(), (ValueVector{50}));
}

TEST_F(NestedCepTest, PredecessorGroupWriteInvalidatesStartedGroup) {
  // Group B follows group A at the top level and both use entity x. B
  // starts first (optimistically, reading the initial x); when A writes x,
  // the top-level Figure 4 fires: B is a successor that already read — the
  // whole B scope resets.
  VersionStore store({50});
  NestedCepController::Options options;
  options.groups = {Group("A", Range(0, 0, 100)),
                    Group("B", Range(0, 0, 100), Predicate::True(), {0})};
  options.group_of_tx = {0, 1};
  NestedCepController ctrl(&store, std::move(options));
  ctrl.Register(0, Profile("a", Range(0, 0, 100)));
  ctrl.Register(1, Profile("b", Range(0, 0, 100)));

  ASSERT_EQ(ctrl.Begin(1), ReqResult::kGranted);  // B's scope opens early.
  ASSERT_EQ(ctrl.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl.Write(0, 0, 80), ReqResult::kGranted);
  ctrl.WriteDone(0, 0);
  // Scope writes are invisible to the top level until publication: B is
  // still fine.
  EXPECT_TRUE(ctrl.TakeForcedAborts().empty());

  // A's single member commits -> the group publishes x=80 at the top,
  // where the Figure 4 re-evaluation fires against successor group B,
  // which already consumed the stale x: the whole B scope resets.
  EXPECT_EQ(ctrl.Commit(0), ReqResult::kGranted);
  std::vector<int> forced = ctrl.TakeForcedAborts();
  ASSERT_EQ(forced, (std::vector<int>{1}));
  EXPECT_EQ(ctrl.stats().group_resets, 1);
  ctrl.Abort(1);
  (void)ctrl.TakeWakeups();
  ASSERT_EQ(ctrl.Begin(1), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(ctrl.Read(1, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 80);
  EXPECT_EQ(ctrl.Commit(1), ReqResult::kGranted);
}

TEST_F(NestedCepTest, InScopeReEvalStillWorks) {
  // The Figure 4 machinery runs inside a scope too: member a1 precedes
  // nobody, but give a0 a member-level predecessor edge to a1.
  VersionStore store({50});
  NestedCepController::Options options;
  options.groups = {Group("A", Range(0, 0, 100))};
  options.group_of_tx = {0, 0};  // Both members in the single group.
  NestedCepController ctrl(&store, std::move(options));
  ctrl.Register(0, Profile("first", Range(0, 0, 100)));
  ctrl.Register(1, Profile("second", Range(0, 0, 100), {0}));

  ASSERT_EQ(ctrl.Begin(1), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(ctrl.Read(1, 0, &v), ReqResult::kGranted);  // Reads seed 50.
  ASSERT_EQ(ctrl.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl.Write(0, 0, 70), ReqResult::kGranted);
  // Member-level partial-order invalidation inside the scope.
  EXPECT_EQ(ctrl.TakeForcedAborts(), (std::vector<int>{1}));
}

TEST_F(NestedCepTest, GroupPredecessorChainsGroupStart) {
  VersionStore store({50});
  NestedCepController::Options options;
  options.groups = {Group("A", Predicate::True()),
                    Group("B", Predicate::True(), Predicate::True(), {0})};
  options.group_of_tx = {0, 1};
  NestedCepController ctrl(&store, std::move(options));
  ctrl.Register(0, Profile("a", Predicate::True()));
  ctrl.Register(1, Profile("b", Predicate::True()));

  // B can begin (optimistic validation), but cannot COMMIT before A.
  ASSERT_EQ(ctrl.Begin(1), ReqResult::kGranted);
  EXPECT_EQ(ctrl.Commit(1), ReqResult::kBlocked);
  ASSERT_EQ(ctrl.Begin(0), ReqResult::kGranted);
  EXPECT_EQ(ctrl.Commit(0), ReqResult::kGranted);
  std::vector<int> wakeups = ctrl.TakeWakeups();
  EXPECT_TRUE(std::find(wakeups.begin(), wakeups.end(), 1) != wakeups.end());
  EXPECT_EQ(ctrl.Commit(1), ReqResult::kGranted);
}

TEST_F(NestedCepTest, UnsatisfiableGroupInputBlocksStart) {
  VersionStore store({50});
  NestedCepController::Options options;
  options.groups = {Group("picky", Range(0, 90, 100)),
                    Group("writer", Range(0, 0, 100))};
  options.group_of_tx = {0, 1};
  NestedCepController ctrl(&store, std::move(options));
  ctrl.Register(0, Profile("p", Range(0, 90, 100)));
  ctrl.Register(1, Profile("w", Range(0, 0, 100)));
  // No version satisfies x >= 90 yet: the group start blocks at the top
  // validation, parking the member.
  EXPECT_EQ(ctrl.Begin(0), ReqResult::kBlocked);
  // The writer group produces and publishes x = 95.
  ASSERT_EQ(ctrl.Begin(1), ReqResult::kGranted);
  ASSERT_EQ(ctrl.Write(1, 0, 95), ReqResult::kGranted);
  ctrl.WriteDone(1, 0);
  EXPECT_EQ(ctrl.Commit(1), ReqResult::kGranted);
  // The picky group is woken and can now start.
  std::vector<int> wakeups = ctrl.TakeWakeups();
  EXPECT_TRUE(std::find(wakeups.begin(), wakeups.end(), 0) != wakeups.end());
  ASSERT_EQ(ctrl.Begin(0), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(ctrl.Read(0, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 95);
  EXPECT_EQ(ctrl.Commit(0), ReqResult::kGranted);
}

TEST_F(NestedCepTest, StatsCountGroupLifecycles) {
  ASSERT_EQ(ctrl_->Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_->Begin(1), ReqResult::kGranted);
  EXPECT_EQ(ctrl_->Commit(0), ReqResult::kBlocked);
  EXPECT_EQ(ctrl_->Commit(1), ReqResult::kGranted);
  EXPECT_EQ(ctrl_->stats().group_commits, 1);
  EXPECT_EQ(ctrl_->stats().group_resets, 0);
}

}  // namespace
}  // namespace nonserial
