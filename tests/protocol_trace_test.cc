// Trace-emission tests for the non-CEP controllers: every protocol drives
// its canonical two-transaction conflict with a TraceRecorder attached
// through the base ConcurrencyController::SetObserver, and the test pins
// the emitted event kinds, peers, entities, and protocol tags. (The CEP
// engine's own emission is pinned by trace_test.cc.)

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "protocol/mvto.h"
#include "protocol/nested_cep.h"
#include "protocol/pw_mvto.h"
#include "protocol/trace.h"
#include "protocol/two_phase_locking.h"

namespace nonserial {
namespace {

TxProfile Profile(const std::string& name, std::vector<int> preds = {},
                  Predicate input = Predicate::True()) {
  TxProfile profile;
  profile.name = name;
  profile.input = std::move(input);
  profile.predecessors = std::move(preds);
  return profile;
}

int CountKind(const TraceRecorder& trace, TraceEvent::Kind kind) {
  return static_cast<int>(trace.OfKind(kind).size());
}

// --- Strict 2PL ----------------------------------------------------------

class S2plTraceTest : public ::testing::Test {
 protected:
  S2plTraceTest()
      : store_({50, 50}),
        ctrl_(&store_, TwoPhaseLockingController::Options()) {
    // Attach through the base interface: the observer API is part of
    // ConcurrencyController, not any one protocol.
    ConcurrencyController& base = ctrl_;
    base.SetObserver(&trace_);
  }

  VersionStore store_;
  TwoPhaseLockingController ctrl_;
  TraceRecorder trace_;
};

TEST_F(S2plTraceTest, WriterBlocksReaderEmitsGrantBlockAndWakeupGrant) {
  ctrl_.Register(0, Profile("writer"));
  ctrl_.Register(1, Profile("reader"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kGranted);
  ctrl_.WriteDone(0, 0);
  Value v = 0;
  ASSERT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kBlocked);
  ASSERT_EQ(ctrl_.Commit(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.TakeWakeups(), (std::vector<int>{1}));
  ASSERT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 60);

  // The block names the conflicting holder and the contested entity.
  std::vector<TraceEvent> blocks = trace_.OfKind(TraceEvent::Kind::kLockBlock);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0].tx, 1);
  EXPECT_EQ(blocks[0].other, 0);
  EXPECT_EQ(blocks[0].entity, 0);
  EXPECT_EQ(blocks[0].protocol, "S2PL");

  // One grant for the writer's X lock, one for the reader's retry.
  std::vector<TraceEvent> grants = trace_.OfKind(TraceEvent::Kind::kLockGrant);
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(grants[0].tx, 0);
  EXPECT_EQ(grants[1].tx, 1);

  std::vector<TraceEvent> writes = trace_.OfKind(TraceEvent::Kind::kWrite);
  ASSERT_EQ(writes.size(), 1u);
  EXPECT_EQ(writes[0].value, 60);
  std::vector<TraceEvent> reads = trace_.OfKind(TraceEvent::Kind::kRead);
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].value, 60);
  EXPECT_EQ(CountKind(trace_, TraceEvent::Kind::kCommitted), 1);

  for (const TraceEvent& event : trace_.events()) {
    EXPECT_EQ(event.protocol, "S2PL") << event.ToString();
  }
}

TEST_F(S2plTraceTest, DeadlockEmitsVictimEvent) {
  ctrl_.Register(0, Profile("t0"));
  ctrl_.Register(1, Profile("t1"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(0, 0, 1), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(1, 1, 2), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(ctrl_.Read(0, 1, &v), ReqResult::kBlocked);
  ASSERT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kAborted);

  std::vector<TraceEvent> victims =
      trace_.OfKind(TraceEvent::Kind::kDeadlockVictim);
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].tx, 1);  // The requester whose wait closes the cycle.
  EXPECT_EQ(victims[0].other, 0);
  EXPECT_EQ(victims[0].entity, 0);

  ctrl_.Abort(1);
  EXPECT_EQ(CountKind(trace_, TraceEvent::Kind::kAborted), 1);
}

TEST_F(S2plTraceTest, PredecessorChainEmitsCommitWait) {
  ctrl_.Register(0, Profile("pred"));
  ctrl_.Register(1, Profile("succ", {0}));
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kBlocked);

  std::vector<TraceEvent> waits =
      trace_.OfKind(TraceEvent::Kind::kCommitWait);
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_EQ(waits[0].tx, 1);
  EXPECT_EQ(waits[0].other, 0);
}

// --- Predicate-wise 2PL --------------------------------------------------

TEST(Pw2plTraceTest, EarlyGroupReleaseEmitsGroupReleaseEvent) {
  VersionStore store({50, 50});
  TwoPhaseLockingController::Options options;
  options.predicatewise = true;
  options.objects = {{0}, {1}};  // x and y in different conjuncts.
  options.planned_ops[0] = {{true, 0}, {true, 1}};
  options.planned_ops[1] = {{true, 0}};
  TwoPhaseLockingController ctrl(&store, std::move(options));
  TraceRecorder trace;
  ctrl.SetObserver(&trace);

  ctrl.Register(0, Profile("t0"));
  ctrl.Register(1, Profile("t1"));
  ASSERT_EQ(ctrl.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl.Begin(1), ReqResult::kGranted);
  ASSERT_EQ(ctrl.Write(0, 0, 60), ReqResult::kGranted);
  ASSERT_EQ(ctrl.Write(1, 0, 70), ReqResult::kBlocked);
  ctrl.WriteDone(0, 0);  // x-conjunct done: its locks drop early.

  std::vector<TraceEvent> releases =
      trace.OfKind(TraceEvent::Kind::kGroupRelease);
  ASSERT_GE(releases.size(), 1u);
  EXPECT_EQ(releases[0].tx, 0);
  EXPECT_EQ(releases[0].other, 0);  // Conjunct object id.
  EXPECT_EQ(releases[0].entity, 0);
  EXPECT_EQ(releases[0].protocol, "PW-2PL");

  for (const TraceEvent& event : trace.events()) {
    EXPECT_EQ(event.protocol, "PW-2PL") << event.ToString();
  }
}

// --- MVTO ----------------------------------------------------------------

class MvtoTraceTest : public ::testing::Test {
 protected:
  MvtoTraceTest() : store_({50, 50}), ctrl_(&store_) {
    ConcurrencyController& base = ctrl_;
    base.SetObserver(&trace_);
  }

  VersionStore store_;
  MvtoController ctrl_;
  TraceRecorder trace_;
};

TEST_F(MvtoTraceTest, BeginEmitsValidatedWithTimestamp) {
  ctrl_.Register(0, Profile("t0"));
  ctrl_.Register(1, Profile("t1"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);

  std::vector<TraceEvent> admits = trace_.OfKind(TraceEvent::Kind::kValidated);
  ASSERT_EQ(admits.size(), 2u);
  EXPECT_EQ(admits[0].protocol, "MVTO");
  // The event value carries the drawn timestamp; later Begin, later ts.
  EXPECT_GT(admits[1].value, admits[0].value);
}

TEST_F(MvtoTraceTest, DirtyReadWaitEmitsCommitWaitNamingWriter) {
  ctrl_.Register(0, Profile("writer"));
  ctrl_.Register(1, Profile("reader"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kBlocked);

  std::vector<TraceEvent> waits =
      trace_.OfKind(TraceEvent::Kind::kCommitWait);
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_EQ(waits[0].tx, 1);
  EXPECT_EQ(waits[0].other, 0);  // The uncommitted version's writer.
  EXPECT_EQ(waits[0].entity, 0);

  ASSERT_EQ(ctrl_.Commit(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.TakeWakeups(), (std::vector<int>{1}));
  ASSERT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kGranted);
  std::vector<TraceEvent> reads = trace_.OfKind(TraceEvent::Kind::kRead);
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].value, 60);
}

TEST_F(MvtoTraceTest, LateWriteEmitsTsAbort) {
  ctrl_.Register(0, Profile("old"));
  ctrl_.Register(1, Profile("young"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kAborted);

  std::vector<TraceEvent> ts_aborts =
      trace_.OfKind(TraceEvent::Kind::kTsAbort);
  ASSERT_EQ(ts_aborts.size(), 1u);
  EXPECT_EQ(ts_aborts[0].tx, 0);
  EXPECT_EQ(ts_aborts[0].entity, 0);
  EXPECT_EQ(ts_aborts[0].protocol, "MVTO");
}

// --- PW-MVTO -------------------------------------------------------------

class PwMvtoTraceTest : public ::testing::Test {
 protected:
  PwMvtoTraceTest() : store_({50, 50}), ctrl_(&store_, {{0}, {1}}) {
    ConcurrencyController& base = ctrl_;
    base.SetObserver(&trace_);
  }

  VersionStore store_;
  PwMvtoController ctrl_;
  TraceRecorder trace_;
};

TEST_F(PwMvtoTraceTest, LazyTimestampsEmitTsDrawPerObject) {
  ctrl_.Register(0, Profile("t0"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  EXPECT_EQ(CountKind(trace_, TraceEvent::Kind::kTsDraw), 0);  // Lazy.

  Value v = 0;
  ASSERT_EQ(ctrl_.Read(0, 0, &v), ReqResult::kGranted);   // Object 0.
  ASSERT_EQ(ctrl_.Write(0, 1, 60), ReqResult::kGranted);  // Object 1.
  ctrl_.WriteDone(0, 1);

  std::vector<TraceEvent> draws = trace_.OfKind(TraceEvent::Kind::kTsDraw);
  ASSERT_EQ(draws.size(), 2u);
  EXPECT_EQ(draws[0].tx, 0);
  EXPECT_EQ(draws[0].other, 0);  // Conjunct object the ts belongs to.
  EXPECT_EQ(draws[1].other, 1);
  EXPECT_EQ(draws[0].value, ctrl_.GroupTimestamp(0, 0));
  EXPECT_EQ(draws[1].value, ctrl_.GroupTimestamp(0, 1));

  for (const TraceEvent& event : trace_.events()) {
    EXPECT_EQ(event.protocol, "PW-MVTO") << event.ToString();
  }
}

TEST_F(PwMvtoTraceTest, LateWriteWithinObjectEmitsTsAbort) {
  ctrl_.Register(0, Profile("old"));
  ctrl_.Register(1, Profile("young"));
  ASSERT_EQ(ctrl_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Begin(1), ReqResult::kGranted);
  Value v = 0;
  // t0 draws object 0's timestamp first (older); t1 then reads the same
  // entity with a younger timestamp, so t0's write arrives late.
  ASSERT_EQ(ctrl_.Read(0, 0, &v), ReqResult::kGranted);
  ASSERT_EQ(ctrl_.Read(1, 0, &v), ReqResult::kGranted);
  ASSERT_LT(ctrl_.GroupTimestamp(0, 0), ctrl_.GroupTimestamp(1, 0));
  ASSERT_EQ(ctrl_.Write(0, 0, 60), ReqResult::kAborted);

  std::vector<TraceEvent> ts_aborts =
      trace_.OfKind(TraceEvent::Kind::kTsAbort);
  ASSERT_EQ(ts_aborts.size(), 1u);
  EXPECT_EQ(ts_aborts[0].tx, 0);
  EXPECT_EQ(ts_aborts[0].entity, 0);
  EXPECT_EQ(ts_aborts[0].protocol, "PW-MVTO");
}

// --- Nested-CEP ----------------------------------------------------------

NestedGroup Group(const std::string& name, Predicate input) {
  NestedGroup g;
  g.name = name;
  g.input = std::move(input);
  return g;
}

class NestedCepTraceTest : public ::testing::Test {
 protected:
  NestedCepTraceTest() : store_({50, 50}) {
    NestedCepController::Options options;
    options.groups = {Group("A", Range(0, 0, 100)),
                      Group("B", Range(1, 0, 100))};
    options.group_of_tx = {0, 0, 1, 1};
    ctrl_ = std::make_unique<NestedCepController>(&store_,
                                                  std::move(options));
    ctrl_->Register(0, Profile("a0", {}, Range(0, 0, 100)));
    ctrl_->Register(1, Profile("a1", {}, Range(0, 0, 100)));
    ctrl_->Register(2, Profile("b0", {}, Range(1, 0, 100)));
    ctrl_->Register(3, Profile("b1", {}, Range(1, 0, 100)));
  }

  VersionStore store_;
  std::unique_ptr<NestedCepController> ctrl_;
  TraceRecorder trace_;
};

TEST_F(NestedCepTraceTest, GroupLifecycleTaggedNestedScopeEventsTaggedCep) {
  ConcurrencyController* base = ctrl_.get();
  base->SetObserver(&trace_);

  ASSERT_EQ(ctrl_->Begin(0), ReqResult::kGranted);
  ASSERT_EQ(ctrl_->Begin(1), ReqResult::kGranted);
  ASSERT_EQ(ctrl_->Write(0, 0, 60), ReqResult::kGranted);
  ctrl_->WriteDone(0, 0);
  // First member's commit is relative: parked until the sibling finishes.
  ASSERT_EQ(ctrl_->Commit(0), ReqResult::kBlocked);
  ASSERT_EQ(ctrl_->Commit(1), ReqResult::kGranted);
  (void)ctrl_->TakeWakeups();
  ASSERT_EQ(ctrl_->Commit(0), ReqResult::kGranted);

  // Group lifecycle events carry the controller's own tag and the group id.
  std::vector<TraceEvent> starts =
      trace_.OfKind(TraceEvent::Kind::kGroupStart);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_EQ(starts[0].tx, 0);  // Group id.
  EXPECT_EQ(starts[0].protocol, "Nested-CEP");
  std::vector<TraceEvent> commits =
      trace_.OfKind(TraceEvent::Kind::kGroupCommit);
  ASSERT_EQ(commits.size(), 1u);
  EXPECT_EQ(commits[0].tx, 0);
  EXPECT_EQ(commits[0].protocol, "Nested-CEP");

  // The scope engine's member events flowed into the same sink, tagged by
  // the inner protocol.
  auto tally = trace_.Tally();
  ASSERT_TRUE(tally.count("CEP"));
  EXPECT_GE(tally["CEP"]["validated"], 2);  // Both members admitted.
  EXPECT_GE(tally["CEP"]["write"], 1);
  EXPECT_GE(tally["CEP"]["committed"], 1);
  ASSERT_TRUE(tally.count("Nested-CEP"));
  EXPECT_EQ(tally["Nested-CEP"]["group-start"], 1);
  EXPECT_EQ(tally["Nested-CEP"]["group-commit"], 1);
}

TEST_F(NestedCepTraceTest, SetObserverReachesScopesOpenedEarlier) {
  // Scope A's engine exists before the sink is attached; the override must
  // still reach it.
  ASSERT_EQ(ctrl_->Begin(0), ReqResult::kGranted);
  ctrl_->SetObserver(&trace_);
  ASSERT_EQ(ctrl_->Write(0, 0, 60), ReqResult::kGranted);
  ctrl_->WriteDone(0, 0);

  EXPECT_GE(CountKind(trace_, TraceEvent::Kind::kWrite), 1);
  EXPECT_EQ(trace_.OfKind(TraceEvent::Kind::kWrite)[0].protocol, "CEP");

  // And scopes opened after attachment get it at creation.
  ASSERT_EQ(ctrl_->Begin(2), ReqResult::kGranted);
  auto tally = trace_.Tally();
  EXPECT_EQ(tally["Nested-CEP"]["group-start"], 1);  // Group B only.
}

}  // namespace
}  // namespace nonserial
