#include <gtest/gtest.h>

#include "protocol/cep.h"

namespace nonserial {
namespace {

// Entities x=0, y=1 with initial value 50 and domain constraint [0, 100].
TxProfile Profile(const std::string& name, Predicate input,
                  Predicate output = Predicate::True(),
                  std::vector<int> preds = {}) {
  TxProfile profile;
  profile.name = name;
  profile.input = std::move(input);
  profile.output = std::move(output);
  profile.predecessors = std::move(preds);
  return profile;
}

class CepTest : public ::testing::Test {
 protected:
  CepTest() : store_({50, 50}), cep_(&store_) {}

  VersionStore store_;
  CorrectExecutionProtocol cep_;
};

TEST_F(CepTest, SingleTransactionLifecycle) {
  cep_.Register(0, Profile("t0", Range(0, 0, 100), Range(0, 0, 100)));
  EXPECT_EQ(cep_.Begin(0), ReqResult::kGranted);
  Value v = 0;
  EXPECT_EQ(cep_.Read(0, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 50);
  EXPECT_EQ(cep_.Write(0, 0, 60), ReqResult::kGranted);
  cep_.WriteDone(0, 0);
  EXPECT_EQ(cep_.Commit(0), ReqResult::kGranted);
  ASSERT_TRUE(cep_.records()[0].committed);
  EXPECT_EQ(cep_.records()[0].writes,
            (std::vector<std::pair<EntityId, Value>>{{0, 60}}));
  EXPECT_EQ(cep_.records()[0].input_state, (ValueVector{50, 50}));
  EXPECT_EQ(store_.LatestCommittedSnapshot(), (ValueVector{60, 50}));
}

// Retire frees a transaction's state; the protocol still answers for it
// from its record (committed or idle), and a later reader still gets the
// retired writer's committed version.
TEST_F(CepTest, RetiredTransactionsKeepTheirPhaseAndRecord) {
  CorrectExecutionProtocol::Options options;
  options.retirement = true;
  CorrectExecutionProtocol cep(&store_, options);
  cep.Register(0, Profile("t0", Range(0, 0, 100)));
  ASSERT_EQ(cep.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep.Write(0, 0, 70), ReqResult::kGranted);
  cep.WriteDone(0, 0);
  ASSERT_EQ(cep.Commit(0), ReqResult::kGranted);
  cep.Register(1, Profile("t1", Range(0, 0, 100)));
  ASSERT_EQ(cep.Begin(1), ReqResult::kGranted);
  cep.Abort(1);
  ASSERT_TRUE(cep.Retire(0));
  ASSERT_TRUE(cep.Retire(1));
  EXPECT_TRUE(cep.IsRetired(0));
  EXPECT_TRUE(cep.IsCommitted(0));
  EXPECT_FALSE(cep.IsCommitted(1));
  EXPECT_EQ(cep.InputView(0), nullptr);
  cep.Abort(1);         // Idle: a no-op.
  cep.InjectAbort(0);   // Terminal: a no-op.
  cep.InjectAbort(1);
  EXPECT_TRUE(cep.TakeForcedAborts().empty());
  ASSERT_TRUE(cep.records()[0].committed);
  EXPECT_EQ(cep.records()[0].name, "t0");
  EXPECT_FALSE(cep.records()[1].committed);

  cep.Register(2, Profile("t2", Range(0, 0, 100)));
  ASSERT_EQ(cep.Begin(2), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(cep.Read(2, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 70);
  EXPECT_EQ(cep.Commit(2), ReqResult::kGranted);
}

// The assignment search evaluates clauses over candidate stripes directly;
// an attached eval cache serves only the output check at commit, so
// validating a multi-clause I_t must not probe it.
TEST_F(CepTest, ValidationDoesNotProbeTheEvalCache) {
  EvalCache cache;
  CorrectExecutionProtocol::Options options;
  options.eval_cache = &cache;
  CorrectExecutionProtocol cep(&store_, options);
  Predicate input = Predicate::And(Range(0, 0, 100), Range(1, 0, 100));
  input.AddClause(Clause({EntityVsEntity(0, CompareOp::kLe, 1)}));
  cep.Register(0, Profile("t0", input));
  ASSERT_EQ(cep.Begin(0), ReqResult::kGranted);
  EXPECT_EQ(cache.metrics()->cache_hits.value() +
                cache.metrics()->cache_misses.value(),
            0);
}

TEST_F(CepTest, OwnWriteVisibleToOwnRead) {
  cep_.Register(0, Profile("t0", Range(0, 0, 100)));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 75), ReqResult::kGranted);
  cep_.WriteDone(0, 0);
  Value v = 0;
  ASSERT_EQ(cep_.Read(0, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 75);
}

TEST_F(CepTest, WritersNeverBlock) {
  cep_.Register(0, Profile("t0", Range(0, 0, 100)));
  cep_.Register(1, Profile("t1", Range(0, 0, 100)));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  // Both write x concurrently; each creates its own version.
  EXPECT_EQ(cep_.Write(0, 0, 60), ReqResult::kGranted);
  EXPECT_EQ(cep_.Write(1, 0, 70), ReqResult::kGranted);
  EXPECT_EQ(store_.ChainSize(0), 3);
}

TEST_F(CepTest, ReaderBlocksOnActiveWriteOnly) {
  cep_.Register(0, Profile("writer", Predicate::True()));
  cep_.Register(1, Profile("reader", Range(0, 0, 100)));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 60), ReqResult::kGranted);
  // Write in progress: the read blocks (Figure 3 "false" entry).
  Value v = 0;
  EXPECT_EQ(cep_.Read(1, 0, &v), ReqResult::kBlocked);
  cep_.WriteDone(0, 0);
  std::vector<int> wakeups = cep_.TakeWakeups();
  EXPECT_EQ(wakeups, (std::vector<int>{1}));
  EXPECT_EQ(cep_.Read(1, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 50);  // Still the assigned (initial) version.
}

TEST_F(CepTest, ValidationBlockedOnActiveWriter) {
  cep_.Register(0, Profile("writer", Predicate::True()));
  cep_.Register(1, Profile("reader", Range(0, 0, 100)));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 60), ReqResult::kGranted);
  EXPECT_EQ(cep_.Begin(1), ReqResult::kBlocked);  // Rv lock vs active W.
  cep_.WriteDone(0, 0);
  EXPECT_EQ(cep_.TakeWakeups(), (std::vector<int>{1}));
  EXPECT_EQ(cep_.Begin(1), ReqResult::kGranted);
}

TEST_F(CepTest, UnsatisfiableValidationWaitsForNewVersions) {
  // Reader needs x >= 90; only 50 exists.
  cep_.Register(0, Profile("reader", Range(0, 90, 100)));
  cep_.Register(1, Profile("writer", Predicate::True()));
  EXPECT_EQ(cep_.Begin(0), ReqResult::kBlocked);
  EXPECT_GT(cep_.metrics()->validation_fails.value(), 0);
  // A sibling writes a satisfying version.
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(1, 0, 95), ReqResult::kGranted);
  cep_.WriteDone(1, 0);
  EXPECT_EQ(cep_.TakeWakeups(), (std::vector<int>{0}));
  EXPECT_EQ(cep_.Begin(0), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(cep_.Read(0, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 95);
}

TEST_F(CepTest, MixedVersionStateIsAssignable) {
  // t0 writes x=60, t1 writes y=70; t2 requires (x >= 60) & (y >= 70):
  // only the mix of both new versions satisfies it.
  cep_.Register(0, Profile("tx", Predicate::True()));
  cep_.Register(1, Profile("ty", Predicate::True()));
  Predicate mix = Predicate::And(Range(0, 60, 100), Range(1, 70, 100));
  cep_.Register(2, Profile("mix", mix));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 60), ReqResult::kGranted);
  cep_.WriteDone(0, 0);
  ASSERT_EQ(cep_.Write(1, 1, 70), ReqResult::kGranted);
  cep_.WriteDone(1, 1);
  ASSERT_EQ(cep_.Begin(2), ReqResult::kGranted);
  Value x = 0, y = 0;
  ASSERT_EQ(cep_.Read(2, 0, &x), ReqResult::kGranted);
  ASSERT_EQ(cep_.Read(2, 1, &y), ReqResult::kGranted);
  EXPECT_EQ(x, 60);
  EXPECT_EQ(y, 70);
}

TEST_F(CepTest, ReEvalReassignsUnreadValidatedReader) {
  // t1 precedes t2 in P. t2 validates against the initial version; when t1
  // then writes x, t2 (Rv only, nothing read) is silently re-assigned.
  cep_.Register(0, Profile("t1", Predicate::True()));
  cep_.Register(1, Profile("t2", Range(0, 0, 100), Predicate::True(), {0}));
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 77), ReqResult::kGranted);
  cep_.WriteDone(0, 0);
  EXPECT_EQ(cep_.metrics()->reassigns.value(), 1);
  EXPECT_EQ(cep_.metrics()->po_aborts.value(), 0);
  Value v = 0;
  ASSERT_EQ(cep_.Read(1, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 77);  // The predecessor's version, as the partial order demands.
}

TEST_F(CepTest, ReEvalAbortsReaderThatReadStaleVersion) {
  // Same setup, but t2 reads x before t1 writes: partial-order
  // invalidation, Figure 4's abort branch.
  cep_.Register(0, Profile("t1", Predicate::True()));
  cep_.Register(1, Profile("t2", Range(0, 0, 100), Predicate::True(), {0}));
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(cep_.Read(1, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 50);
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 77), ReqResult::kGranted);
  EXPECT_EQ(cep_.metrics()->po_aborts.value(), 1);
  EXPECT_EQ(cep_.TakeForcedAborts(), (std::vector<int>{1}));
  cep_.WriteDone(0, 0);
  cep_.Abort(1);
  // t2 restarts and now sees the predecessor's version.
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  ASSERT_EQ(cep_.Read(1, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 77);
}

TEST_F(CepTest, NonPredecessorWriteDoesNotDisturbReader) {
  // No partial order: a concurrent write leaves the reader on its old
  // version (multiversion tolerance — the paper's key concurrency win).
  cep_.Register(0, Profile("reader", Range(0, 0, 100)));
  cep_.Register(1, Profile("writer", Predicate::True()));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(cep_.Read(0, 0, &v), ReqResult::kGranted);
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(1, 0, 99), ReqResult::kGranted);
  cep_.WriteDone(1, 0);
  EXPECT_EQ(cep_.metrics()->po_aborts.value(), 0);
  EXPECT_TRUE(cep_.TakeForcedAborts().empty());
  EXPECT_EQ(cep_.Commit(0), ReqResult::kGranted);
}

TEST_F(CepTest, CommitWaitsForPredecessor) {
  cep_.Register(0, Profile("t1", Predicate::True()));
  cep_.Register(1, Profile("t2", Predicate::True(), Predicate::True(), {0}));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  EXPECT_EQ(cep_.Commit(1), ReqResult::kBlocked);
  EXPECT_EQ(cep_.Commit(0), ReqResult::kGranted);
  EXPECT_EQ(cep_.TakeWakeups(), (std::vector<int>{1}));
  EXPECT_EQ(cep_.Commit(1), ReqResult::kGranted);
}

TEST_F(CepTest, CommitWaitsForAssignedAuthor) {
  // t1 writes x=95; t2's input constraint is only satisfiable by that
  // version, so t2's commit waits for t1's.
  cep_.Register(0, Profile("t1", Predicate::True()));
  cep_.Register(1, Profile("t2", Range(0, 90, 100)));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 95), ReqResult::kGranted);
  cep_.WriteDone(0, 0);
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  EXPECT_EQ(cep_.Commit(1), ReqResult::kBlocked);
  EXPECT_EQ(cep_.Commit(0), ReqResult::kGranted);
  EXPECT_EQ(cep_.TakeWakeups(), (std::vector<int>{1}));
  EXPECT_EQ(cep_.Commit(1), ReqResult::kGranted);
  EXPECT_EQ(cep_.records()[1].feeder_txs, (std::set<int>{0}));
}

TEST_F(CepTest, AbortCascadesToReaderOfDeadVersion) {
  cep_.Register(0, Profile("t1", Predicate::True()));
  cep_.Register(1, Profile("t2", Range(0, 90, 100)));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 95), ReqResult::kGranted);
  cep_.WriteDone(0, 0);
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(cep_.Read(1, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 95);
  cep_.Abort(0);  // t1 dies; t2 consumed its version.
  EXPECT_EQ(cep_.metrics()->cascade_aborts.value(), 1);
  EXPECT_EQ(cep_.TakeForcedAborts(), (std::vector<int>{1}));
}

TEST_F(CepTest, AbortReassignsUnreadDependant) {
  cep_.Register(0, Profile("t1", Predicate::True()));
  cep_.Register(1, Profile("t2", Range(0, 0, 100)));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 95), ReqResult::kGranted);
  cep_.WriteDone(0, 0);
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  cep_.Abort(0);
  EXPECT_TRUE(cep_.TakeForcedAborts().empty());
  Value v = 0;
  ASSERT_EQ(cep_.Read(1, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 50);  // Back on a live version.
  EXPECT_EQ(cep_.Commit(1), ReqResult::kGranted);
}

// Regression: t2 is assigned t1's versions of BOTH x and y but has only
// read y when t1 aborts. The cascade scan must consider the whole
// assignment — bailing out at the first (unread) entity and re-solving
// with the consumed y still pinned would smuggle t1's rolled-back value
// into t2's input state.
TEST_F(CepTest, AbortCascadesWhenAnyReadEntityHoldsDeadVersion) {
  Predicate both = Predicate::And(Range(0, 90, 100), Range(1, 90, 100));
  cep_.Register(0, Profile("t1", Predicate::True()));
  cep_.Register(1, Profile("t2", both));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 95), ReqResult::kGranted);
  cep_.WriteDone(0, 0);
  ASSERT_EQ(cep_.Write(0, 1, 95), ReqResult::kGranted);
  cep_.WriteDone(0, 1);
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);  // Assigned t1's x and y.
  Value v = 0;
  ASSERT_EQ(cep_.Read(1, 1, &v), ReqResult::kGranted);  // Reads y only.
  EXPECT_EQ(v, 95);
  cep_.Abort(0);
  EXPECT_EQ(cep_.metrics()->cascade_aborts.value(), 1);
  EXPECT_EQ(cep_.TakeForcedAborts(), (std::vector<int>{1}));
  // And the doomed attempt cannot commit even if the driver races to it.
  EXPECT_EQ(cep_.Commit(1), ReqResult::kAborted);
}

// Regression (Theorem 2 under concurrent drivers): once Figure 4 condemns
// an attempt, a Commit racing the abort signal must lose — the partial-
// order invalidation would otherwise be published.
TEST_F(CepTest, ForcedAbortBeatsRacingCommit) {
  cep_.Register(0, Profile("t1", Predicate::True()));
  cep_.Register(1, Profile("t2", Range(0, 0, 100), Predicate::True(), {0}));
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(cep_.Read(1, 0, &v), ReqResult::kGranted);  // Reads stale x.
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 77), ReqResult::kGranted);  // PO invalidation.
  cep_.WriteDone(0, 0);
  // Signals drained (as a concurrent driver thread would have done) —
  // the engine must still remember the condemnation.
  EXPECT_EQ(cep_.TakeForcedAborts(), (std::vector<int>{1}));
  EXPECT_EQ(cep_.Commit(1), ReqResult::kAborted);
  cep_.Abort(1);
  // A fresh attempt is clean.
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  ASSERT_EQ(cep_.Read(1, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 77);
  EXPECT_EQ(cep_.Commit(0), ReqResult::kGranted);
  EXPECT_EQ(cep_.Commit(1), ReqResult::kGranted);
}

TEST_F(CepTest, FailedOutputConditionAborts) {
  Predicate impossible = Range(0, 200, 300);
  cep_.Register(0, Profile("t0", Predicate::True(), impossible));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 60), ReqResult::kGranted);
  cep_.WriteDone(0, 0);
  EXPECT_EQ(cep_.Commit(0), ReqResult::kAborted);
  cep_.Abort(0);
  EXPECT_EQ(store_.LatestCommittedSnapshot(), (ValueVector{50, 50}));
}

TEST_F(CepTest, CommitWaitsResolveAfterAuthorsCommit) {
  // Two consumers each validated against a different producer's version;
  // both commits block until their producers commit, then proceed.
  cep_.Register(0, Profile("t0", Range(1, 90, 100)));
  cep_.Register(1, Profile("t1", Range(0, 90, 100)));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kBlocked);  // y=90 not yet written.
  ASSERT_EQ(cep_.Begin(1), ReqResult::kBlocked);
  // Each writes what the other needs.
  // (Writes require kExecuting; use fresh writers instead.)
  cep_.Register(2, Profile("wx", Predicate::True()));
  cep_.Register(3, Profile("wy", Predicate::True()));
  ASSERT_EQ(cep_.Begin(2), ReqResult::kGranted);
  ASSERT_EQ(cep_.Begin(3), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(2, 0, 95), ReqResult::kGranted);
  cep_.WriteDone(2, 0);
  ASSERT_EQ(cep_.Write(3, 1, 95), ReqResult::kGranted);
  cep_.WriteDone(3, 1);
  (void)cep_.TakeWakeups();
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  // t0 waits on writer 3; t1 waits on writer 2 — no cycle here; both
  // proceed once the writers commit.
  EXPECT_EQ(cep_.Commit(0), ReqResult::kBlocked);
  EXPECT_EQ(cep_.Commit(1), ReqResult::kBlocked);
  EXPECT_EQ(cep_.Commit(2), ReqResult::kGranted);
  EXPECT_EQ(cep_.Commit(3), ReqResult::kGranted);
  (void)cep_.TakeWakeups();
  EXPECT_EQ(cep_.Commit(0), ReqResult::kGranted);
  EXPECT_EQ(cep_.Commit(1), ReqResult::kGranted);
}

TEST_F(CepTest, StatsTrackValidations) {
  cep_.Register(0, Profile("t0", Range(0, 0, 100)));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  EXPECT_EQ(cep_.metrics()->validations.value(), 1);
}

TEST_F(CepTest, ReassignFailureAbortsReader) {
  // t2 follows t1 in P, needs (x <= y), and has already read y = 50
  // (pinned). When t1 writes x = 90, the Figure 4 re-assign must pin
  // x to 90 — but 90 <= 50 fails and nothing else can move: the reader
  // is force-aborted.
  Predicate rel = Range(0, 0, 100);
  rel = Predicate::And(rel, Range(1, 0, 100));
  rel.AddClause(Clause({EntityVsEntity(0, CompareOp::kLe, 1)}));
  cep_.Register(0, Profile("t1", Predicate::True()));
  cep_.Register(1, Profile("t2", rel, Predicate::True(), {0}));
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(cep_.Read(1, 1, &v), ReqResult::kGranted);  // y pinned at 50.
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 90), ReqResult::kGranted);
  EXPECT_EQ(cep_.metrics()->reassigns.value(), 1);
  EXPECT_EQ(cep_.reassign_failures(), 1);
  EXPECT_EQ(cep_.TakeForcedAborts(), (std::vector<int>{1}));
}

TEST_F(CepTest, PinnedVersionsProtectAssignmentsFromGc) {
  // t1 commits a new version of x; t2 validates against the *old* initial
  // version (its constraint demands a small x). GC must not collect the
  // version t2 is assigned.
  cep_.Register(0, Profile("writer", Predicate::True()));
  cep_.Register(1, Profile("reader", Range(0, 0, 55)));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 90), ReqResult::kGranted);
  cep_.WriteDone(0, 0);
  ASSERT_EQ(cep_.Commit(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);  // Assigned initial x=50.
  std::vector<VersionRef> pinned = cep_.PinnedVersions();
  ASSERT_FALSE(pinned.empty());
  // Without pins the initial version of x would be obsolete (90 is the
  // latest committed); the pin keeps it.
  store_.CollectObsolete(pinned);
  Value v = 0;
  ASSERT_EQ(cep_.Read(1, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 50);
  EXPECT_EQ(cep_.Commit(1), ReqResult::kGranted);
}

// Regression: the optimistic out-of-lock validation used to rescan without
// bound — a write storm on a hot entity invalidated the snapshot on every
// pass, livelocking Begin. The rescan cap must kick in and fall back to the
// in-lock Figure 4 search, which cannot be invalidated.
TEST(CepStarvationTest, HotEntityWriteStormCannotLivelockValidation) {
  VersionStore store({50, 50});
  ProtocolMetrics metrics;
  CorrectExecutionProtocol::Options options;
  options.metrics = &metrics;
  options.max_validation_rescans = 4;
  bool storm_on = false;
  CorrectExecutionProtocol* engine = nullptr;
  // Deterministic write storm: every unlocked search window of the victim's
  // validation, the already-executing writer installs a fresh version of
  // the hot entity, bumping its chain stamp and invalidating the snapshot.
  options.validation_interference = [&](int tx) {
    if (!storm_on || tx != 0) return;
    ASSERT_EQ(engine->Write(1, 0, 50), ReqResult::kGranted);
    engine->WriteDone(1, 0);
  };
  CorrectExecutionProtocol cep(&store, options);
  engine = &cep;

  TxProfile victim;
  victim.name = "victim";
  victim.input = Range(0, 0, 100);
  cep.Register(0, victim);
  TxProfile writer;
  writer.name = "writer";
  writer.input = Range(0, 0, 100);
  cep.Register(1, writer);
  ASSERT_EQ(cep.Begin(1), ReqResult::kGranted);

  storm_on = true;
  ReqResult r = cep.Begin(0);
  storm_on = false;
  // Begin terminated (no livelock) and the starvation fallback engaged.
  EXPECT_EQ(r, ReqResult::kGranted);
  EXPECT_GE(cep.metrics()->validation_rescans.value(), 4);
  EXPECT_GE(cep.metrics()->validation_starved.value(), 1);
  EXPECT_GE(metrics.validation_starved.value(), 1);

  // The fallback assignment is a real one: the victim executes to commit.
  // If it was (re-)assigned one of the storm writer's uncommitted versions,
  // commit rule 2 parks it until the writer commits — that's correctness,
  // not starvation.
  Value v = 0;
  ASSERT_EQ(cep.Read(0, 0, &v), ReqResult::kGranted);
  EXPECT_EQ(v, 50);
  ReqResult commit_victim = cep.Commit(0);
  ASSERT_EQ(cep.Commit(1), ReqResult::kGranted);
  if (commit_victim != ReqResult::kGranted) {
    (void)cep.TakeWakeups();
    commit_victim = cep.Commit(0);
  }
  EXPECT_EQ(commit_victim, ReqResult::kGranted);
  EXPECT_EQ(cep.WaiterFootprint(), 0u);
}

// A bounded version of the same storm: after the first invalidated pass
// the rescans must run as *delta* revalidations — the untouched entity
// stays pinned to the previous choice and only the stormed entity is
// re-searched.
TEST(CepDeltaRevalidationTest, RescansAfterInterferenceAreDeltaSolves) {
  VersionStore store({50, 50});
  ProtocolMetrics metrics;
  CorrectExecutionProtocol::Options options;
  options.metrics = &metrics;
  int storm_left = 0;
  CorrectExecutionProtocol* engine = nullptr;
  options.validation_interference = [&](int tx) {
    if (storm_left <= 0 || tx != 0) return;
    --storm_left;
    ASSERT_EQ(engine->Write(1, 0, 40), ReqResult::kGranted);
    engine->WriteDone(1, 0);
  };
  CorrectExecutionProtocol cep(&store, options);
  engine = &cep;

  TxProfile victim;
  victim.name = "victim";
  victim.input = Predicate::And(Range(0, 0, 100), Range(1, 0, 100));
  victim.input.AddClause(Clause({EntityVsEntity(0, CompareOp::kLe, 1)}));
  cep.Register(0, victim);
  TxProfile writer;
  writer.name = "writer";
  writer.input = Range(0, 0, 100);
  cep.Register(1, writer);
  ASSERT_EQ(cep.Begin(1), ReqResult::kGranted);

  storm_left = 2;
  ReqResult r = cep.Begin(0);
  EXPECT_EQ(r, ReqResult::kGranted);
  EXPECT_EQ(storm_left, 0);
  // Both invalidated passes rescanned, and the rescans were delta solves —
  // never the in-lock starvation fallback.
  EXPECT_GE(cep.metrics()->validation_rescans.value(), 2);
  EXPECT_GE(cep.metrics()->delta_rescans.value(), 1);
  EXPECT_EQ(cep.metrics()->delta_fallbacks.value(), 0);
  EXPECT_EQ(cep.metrics()->validation_starved.value(), 0);
  EXPECT_GE(metrics.delta_rescans.value(), 1);

  // The delta-found assignment is a real one: the victim reads a version of
  // x that satisfies x <= y and commits (waiting on the writer if it was
  // assigned an uncommitted storm version — commit rule 2).
  Value x = -1, y = -1;
  ASSERT_EQ(cep.Read(0, 0, &x), ReqResult::kGranted);
  ASSERT_EQ(cep.Read(0, 1, &y), ReqResult::kGranted);
  EXPECT_LE(x, y);
  ReqResult commit_victim = cep.Commit(0);
  ASSERT_EQ(cep.Commit(1), ReqResult::kGranted);
  if (commit_victim != ReqResult::kGranted) {
    (void)cep.TakeWakeups();
    commit_victim = cep.Commit(0);
  }
  EXPECT_EQ(commit_victim, ReqResult::kGranted);
}

using CepDeathTest = CepTest;

TEST_F(CepDeathTest, ReadOutsideInputConstraintRejected) {
  // The paper: "If the transaction does not have a Rv-lock on the data
  // item, then the read is rejected."
  cep_.Register(0, Profile("t0", Range(0, 0, 100)));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  Value v = 0;
  EXPECT_DEATH((void)cep_.Read(0, 1, &v), "input constraint");
}

}  // namespace
}  // namespace nonserial
