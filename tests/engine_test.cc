#include "engine/engine.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/metrics.h"
#include "protocol/registry.h"
#include "storage/wal.h"

namespace nonserial {
namespace {

// Entities x=0, y=1 with initial value 50 and domain constraint [0, 100].
engine::TxSpec Spec(const std::string& name,
                    Predicate input = Predicate::True(),
                    Predicate output = Predicate::True(),
                    std::vector<int> preds = {}) {
  engine::TxSpec spec;
  spec.name = name;
  spec.input = std::move(input);
  spec.output = std::move(output);
  spec.predecessors = std::move(preds);
  return spec;
}

EngineOptions BaseOptions(ProtocolMetrics* metrics = nullptr) {
  EngineOptions options;
  options.initial = {50, 50};
  options.protocol.metrics = metrics;
  options.poll_us = 100;
  options.max_poll_us = 1'000;
  return options;
}

TEST(EngineSessionTest, SingleSessionLifecycle) {
  Engine engine(BaseOptions());
  std::unique_ptr<Session> session = engine.OpenSession();
  ASSERT_TRUE(session->Begin(Spec("t0", Range(0, 0, 100))).ok());
  EXPECT_TRUE(session->in_transaction());
  StatusOr<Value> v = session->Read(0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 50);
  ASSERT_TRUE(session->Write(0, 60).ok());
  v = session->Read(0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 60);  // Own write visible.
  ASSERT_TRUE(session->Commit().ok());
  EXPECT_FALSE(session->in_transaction());
  EXPECT_EQ(engine.store()->LatestCommittedSnapshot(), (ValueVector{60, 50}));
}

TEST(EngineSessionTest, CallSequenceErrors) {
  Engine engine(BaseOptions());
  std::unique_ptr<Session> session = engine.OpenSession();
  // No transaction open yet.
  EXPECT_EQ(session->Read(0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session->Write(0, 1).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session->Commit().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(session->Abort().ok());  // Idle abort is a no-op.

  ASSERT_TRUE(session->Begin(Spec("t0")).ok());
  // Double begin.
  EXPECT_EQ(session->Begin(Spec("t1")).code(),
            StatusCode::kFailedPrecondition);
  // Bad entity ids.
  EXPECT_EQ(session->Read(-1).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(session->Write(99, 1).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(session->Abort().ok());
}

TEST(EngineSessionTest, BadPredecessorIsInvalidArgument) {
  Engine engine(BaseOptions());
  std::unique_ptr<Session> session = engine.OpenSession();
  // A predecessor must name an earlier transaction; this session's first
  // transaction has id 0, so any predecessor is out of range.
  engine::TxSpec spec = Spec("t0");
  spec.predecessors = {5};
  EXPECT_EQ(session->Begin(spec).code(), StatusCode::kInvalidArgument);
  // Nor may it name the session's own uncommitted id.
  spec.predecessors = {session->tx()};
  EXPECT_EQ(session->Begin(spec).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(session->in_transaction());
  // The failed begin released its admission slot.
  EXPECT_EQ(engine.inflight(), 0);
}

TEST(EngineSessionTest, TxIdReusedAfterAbortFreshAfterCommit) {
  Engine engine(BaseOptions());
  std::unique_ptr<Session> session = engine.OpenSession();
  ASSERT_TRUE(session->Begin(Spec("a")).ok());
  int first = session->tx();
  ASSERT_TRUE(session->Abort().ok());
  ASSERT_TRUE(session->Begin(Spec("b")).ok());
  // Abort-retry churn must not grow the controller's id space.
  EXPECT_EQ(session->tx(), first);
  ASSERT_TRUE(session->Commit().ok());
  ASSERT_TRUE(session->Begin(Spec("c")).ok());
  // A committed id is terminal; the next attempt gets a fresh one.
  EXPECT_GT(session->tx(), first);
  ASSERT_TRUE(session->Commit().ok());
}

TEST(EngineSessionTest, PredecessorFromLaterOpenedSession) {
  // Ids are allocated when sessions open, so a session may name a
  // transaction committed under a later id; its Begin then moves it to a
  // fresh id, keeping every predecessor's id smaller.
  Engine engine(BaseOptions());
  std::unique_ptr<Session> a = engine.OpenSession();
  std::unique_ptr<Session> b = engine.OpenSession();
  ASSERT_TRUE(b->Begin(Spec("b0")).ok());
  ASSERT_TRUE(b->Commit().ok());
  ASSERT_GT(b->tx(), a->tx());
  ASSERT_TRUE(
      a->Begin(Spec("a0", Predicate::True(), Predicate::True(), {b->tx()}))
          .ok());
  EXPECT_GT(a->tx(), b->tx());
  ASSERT_TRUE(a->Commit().ok());

  // The same after an abort, whose id would otherwise be reused.
  ASSERT_TRUE(a->Begin(Spec("a1")).ok());
  ASSERT_TRUE(a->Abort().ok());
  ASSERT_TRUE(b->Begin(Spec("b1")).ok());
  ASSERT_TRUE(b->Commit().ok());
  ASSERT_TRUE(
      a->Begin(Spec("a2", Predicate::True(), Predicate::True(), {b->tx()}))
          .ok());
  EXPECT_GT(a->tx(), b->tx());
  ASSERT_TRUE(a->Commit().ok());
}

TEST(EngineSessionTest, AdmissionControlShedsOverBudget) {
  ProtocolMetrics metrics;
  EngineOptions options = BaseOptions(&metrics);
  options.max_inflight_tx = 1;
  Engine engine(options);
  std::unique_ptr<Session> s1 = engine.OpenSession();
  std::unique_ptr<Session> s2 = engine.OpenSession();
  ASSERT_TRUE(s1->Begin(Spec("a")).ok());
  // Budget exhausted: the second begin is shed, not blocked.
  EXPECT_EQ(s2->Begin(Spec("b")).code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(s2->in_transaction());
  ASSERT_TRUE(s1->Commit().ok());
  // The slot is free again.
  EXPECT_TRUE(s2->Begin(Spec("b")).ok());
  ASSERT_TRUE(s2->Commit().ok());
  EXPECT_EQ(metrics.server_accepted.value(), 2);
  EXPECT_EQ(metrics.server_shed.value(), 1);
  EXPECT_EQ(metrics.server_inflight.count(), 2);
}

TEST(EngineSessionTest, SessionDestructorRollsBackAndReleasesAdmission) {
  ProtocolMetrics metrics;
  EngineOptions options = BaseOptions(&metrics);
  options.max_inflight_tx = 1;
  Engine engine(options);
  {
    std::unique_ptr<Session> s1 = engine.OpenSession();
    ASSERT_TRUE(s1->Begin(Spec("a")).ok());
    ASSERT_TRUE(s1->Write(0, 99).ok());
    // Session departs mid-transaction (a dropped connection).
  }
  EXPECT_EQ(engine.inflight(), 0);
  // The abandoned write never committed.
  EXPECT_EQ(engine.store()->LatestCommittedSnapshot(), (ValueVector{50, 50}));
  std::unique_ptr<Session> s2 = engine.OpenSession();
  EXPECT_TRUE(s2->Begin(Spec("b")).ok());
  ASSERT_TRUE(s2->Commit().ok());
  EXPECT_EQ(metrics.server_sessions_opened.value(), 2);
  EXPECT_EQ(metrics.server_sessions_closed.value(), 1);
}

TEST(EngineSessionTest, CrossSessionWakeupUnblocksValidation) {
  Engine engine(BaseOptions());
  // Session A needs x >= 90; only 50 exists, so its begin parks in
  // validation until some other session commits a satisfying version.
  std::unique_ptr<Session> a = engine.OpenSession();
  std::unique_ptr<Session> b = engine.OpenSession();
  Status begin_status = Status::OK();
  Value seen = 0;
  std::thread blocked([&] {
    begin_status = a->Begin(Spec("reader", Range(0, 90, 100)));
    if (begin_status.ok()) {
      StatusOr<Value> v = a->Read(0);
      if (v.ok()) seen = *v;
      a->Commit();
    }
  });
  // Give A a moment to park, then satisfy its input predicate from B.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(b->Begin(Spec("writer")).ok());
  ASSERT_TRUE(b->Write(0, 95).ok());
  ASSERT_TRUE(b->Commit().ok());
  blocked.join();
  EXPECT_TRUE(begin_status.ok()) << begin_status.ToString();
  EXPECT_EQ(seen, 95);
}

TEST(EngineSessionTest, BoundedWaitingAbortsAfterBlockedBudget) {
  ProtocolMetrics metrics;
  EngineOptions options = BaseOptions(&metrics);
  options.max_blocked_us = 10'000;  // 10ms budget, polls of 100us..1ms.
  Engine engine(options);
  std::unique_ptr<Session> session = engine.OpenSession();
  // Unsatisfiable input (x >= 90 with only 50 on the chain) and nobody to
  // wake us: the blocked budget converts the park into a deadline abort.
  Status s = session->Begin(Spec("reader", Range(0, 90, 100)));
  EXPECT_EQ(s.code(), StatusCode::kAborted);
  EXPECT_FALSE(session->in_transaction());
  EXPECT_GE(metrics.deadline_aborts.value(), 1);
  EXPECT_EQ(engine.inflight(), 0);
}

TEST(EngineSessionTest, OutputPredicateRejectsBadCommit) {
  // O_t demands x <= 100; writing 200 must not survive commit validation.
  // Bounded waiting turns the commit-time revalidation park into an abort
  // (an unbounded session would wait for a sibling to fix the state).
  EngineOptions options = BaseOptions();
  options.max_blocked_us = 10'000;
  Engine engine(options);
  std::unique_ptr<Session> session = engine.OpenSession();
  ASSERT_TRUE(
      session->Begin(Spec("t0", Range(0, 0, 100), Range(0, 0, 100))).ok());
  ASSERT_TRUE(session->Write(0, 200).ok());
  EXPECT_EQ(session->Commit().code(), StatusCode::kAborted);
  EXPECT_EQ(engine.store()->LatestCommittedSnapshot(), (ValueVector{50, 50}));
}

TEST(EngineSessionTest, CommitIsDurableUnderGroupCommitWal) {
  ProtocolMetrics metrics;
  WriteAheadLog wal({50, 50});
  EngineOptions options = BaseOptions(&metrics);
  options.wal = &wal;
  options.wal_group_commit = true;
  {
    Engine engine(options);
    std::unique_ptr<Session> session = engine.OpenSession();
    ASSERT_TRUE(session->Begin(Spec("t0")).ok());
    ASSERT_TRUE(session->Write(0, 77).ok());
    ASSERT_TRUE(session->Commit().ok());
    session.reset();
    engine.Shutdown();
  }
  // Commit returned OK, so the commit record is on the medium: a recovery
  // from the log alone reproduces the committed state.
  RecoveryResult rec = wal.Recover(RecoveryOptions{});
  ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
  EXPECT_EQ(rec.store->LatestCommittedSnapshot(), (ValueVector{77, 50}));
  // The WAL counted its pipeline into the engine's sink.
  EXPECT_GE(metrics.group_commit_commits.value(), 1);
  EXPECT_GE(metrics.group_commit_batches.value(), 1);
}

TEST(EngineSessionTest, WalCountersAreLiveBeforeShutdown) {
  ProtocolMetrics metrics;
  WriteAheadLog wal({50, 50});
  EngineOptions options = BaseOptions(&metrics);
  options.wal = &wal;
  options.wal_group_commit = true;
  Engine engine(options);
  std::unique_ptr<Session> session = engine.OpenSession();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(session->Begin(Spec("t")).ok());
    ASSERT_TRUE(session->Write(0, i).ok());
    ASSERT_TRUE(session->Commit().ok());
  }
  // Each acked commit was counted by the batch that flushed it.
  EXPECT_EQ(engine.metrics()->group_commit_commits.value(), 5);
  EXPECT_GT(engine.metrics()->wal_device_flushes.value(), 0);
  session.reset();
  engine.Shutdown();
  EXPECT_EQ(metrics.group_commit_commits.value(), 5);
}

TEST(EngineSessionTest, EngineWithoutSinkCountsIntoItsOwn) {
  Engine engine(BaseOptions());
  ASSERT_NE(engine.metrics(), nullptr);
  std::unique_ptr<Session> session = engine.OpenSession();
  ASSERT_TRUE(session->Begin(Spec("t0", Range(0, 0, 100))).ok());
  ASSERT_TRUE(session->Read(0).ok());
  ASSERT_TRUE(session->Commit().ok());
  EXPECT_EQ(engine.metrics()->server_sessions_opened.value(), 1);
  EXPECT_EQ(engine.metrics()->server_accepted.value(), 1);
  // The hosted CEP counts into the same sink.
  EXPECT_EQ(engine.cep()->metrics(), engine.metrics());
  EXPECT_EQ(engine.metrics()->validations.value(), 1);
  EXPECT_GT(engine.metrics()->lock_grants.value(), 0);
}

TEST(EngineSessionTest, WalBacklogBoundShedsNewTransactions) {
  ProtocolMetrics metrics;
  WriteAheadLog wal({50, 50});
  EngineOptions options = BaseOptions(&metrics);
  options.wal = &wal;
  options.wal_group_commit = true;
  options.max_wal_backlog_frames = 2;
  Engine engine(options);
  ScopedEngineShutdown guard(&engine);
  wal.HoldFlushesForTest(true);
  // Stall the flush pipeline and stage more frames than the bound.
  std::unique_ptr<Session> writer = engine.OpenSession();
  ASSERT_TRUE(writer->Begin(Spec("w")).ok());
  for (Value v = 0; v < 8; ++v) {
    ASSERT_TRUE(writer->Write(0, v).ok());
  }
  EXPECT_GT(wal.PipelineDepth(), 2u);
  // Group-commit acks are behind: admission turns new work away.
  std::unique_ptr<Session> late = engine.OpenSession();
  EXPECT_EQ(late->Begin(Spec("late")).code(), StatusCode::kResourceExhausted);
  EXPECT_GE(metrics.server_shed.value(), 1);
  wal.HoldFlushesForTest(false);
  ASSERT_TRUE(writer->Abort().ok());
}

TEST(EngineSessionTest, PredecessorCommittedBeforeCrashRecover) {
  // Re-adoption lets a pre-crash commit satisfy commit rule 1; bounded
  // waiting turns a regression into an abort instead of a hang.
  WriteAheadLog wal({50, 50});
  EngineOptions options = BaseOptions();
  options.wal = &wal;
  options.max_blocked_us = 200'000;
  Engine engine(options);
  std::unique_ptr<Session> first = engine.OpenSession();
  ASSERT_TRUE(first->Begin(Spec("first")).ok());
  ASSERT_TRUE(first->Write(0, 60).ok());
  ASSERT_TRUE(first->Commit().ok());
  int predecessor = first->tx();
  first.reset();
  RecoveryResult rec = engine.CrashRecover(RecoveryOptions{});
  ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();

  std::unique_ptr<Session> second = engine.OpenSession();
  engine::TxSpec spec = Spec("second");
  spec.predecessors = {predecessor};
  ASSERT_TRUE(second->Begin(spec).ok());
  ASSERT_TRUE(second->Write(1, 70).ok());
  Status commit = second->Commit();
  EXPECT_TRUE(commit.ok()) << commit.ToString();
  EXPECT_EQ(engine.store()->LatestCommittedSnapshot(), (ValueVector{60, 70}));
}

// Two sessions on their own threads drive S2PL, then Nested-CEP, on an
// engine built straight from the registry, which serializes them itself
// (scripts/ci.sh runs this under ThreadSanitizer).
TEST(EngineSessionTest, RegistryProtocolsServeConcurrentSessions) {
  ProtocolSetup setup;
  for (int g = 0; g < 2; ++g) {
    NestedGroup group;
    group.name = g == 0 ? "left" : "right";
    group.input = Range(g, 0, 100);
    group.output = Range(g, 0, 100);
    setup.nested.groups.push_back(group);
    setup.nested.group_of_tx.push_back(g);
  }
  for (ProtocolKind kind :
       {ProtocolKind::kStrict2pl, ProtocolKind::kNestedCep}) {
    EngineOptions options = BaseOptions();
    options.controller_factory = MakeControllerFactory(kind, setup);
    Engine engine(std::move(options));
    std::vector<std::unique_ptr<Session>> sessions;
    sessions.push_back(engine.OpenSession());
    sessions.push_back(engine.OpenSession());
    std::vector<Status> outcome(2, Status::OK());
    std::vector<std::thread> threads;
    for (int s = 0; s < 2; ++s) {
      threads.emplace_back([&, s] {
        Session* session = sessions[s].get();
        outcome[s] = session->Begin(Spec(s == 0 ? "left" : "right",
                                         Range(s, 0, 100), Range(s, 0, 100)));
        if (!outcome[s].ok()) return;
        StatusOr<Value> v = session->Read(s);
        outcome[s] = v.ok() ? session->Write(s, *v + 1 + s) : v.status();
        if (outcome[s].ok()) outcome[s] = session->Commit();
      });
    }
    for (std::thread& t : threads) t.join();
    for (int s = 0; s < 2; ++s) {
      EXPECT_TRUE(outcome[s].ok())
          << ProtocolKindName(kind) << ": " << outcome[s].ToString();
    }
    EXPECT_EQ(engine.store()->LatestCommittedSnapshot(), (ValueVector{51, 52}))
        << ProtocolKindName(kind);
  }
}

// A registry-built CEP is built from the engine's protocol options: it
// retires terminated transactions and counts into the engine's sink, as the
// default-built CEP does.
TEST(EngineSessionTest, RegistryBuiltCepRetiresLikeTheDefault) {
  std::vector<int64_t> retired;
  for (bool registry : {false, true}) {
    ProtocolMetrics metrics;
    EngineOptions options = BaseOptions(&metrics);
    options.retire_terminated_tx = true;
    if (registry) {
      options.controller_factory = MakeControllerFactory(ProtocolKind::kCep);
    }
    Engine engine(std::move(options));
    ASSERT_NE(engine.cep(), nullptr);
    EXPECT_EQ(engine.cep()->metrics(), &metrics);
    std::unique_ptr<Session> session = engine.OpenSession();
    for (int t = 0; t < 5; ++t) {
      ASSERT_TRUE(session
                      ->Begin(Spec("t" + std::to_string(t), Range(0, 0, 100),
                                   Range(0, 0, 100)))
                      .ok());
      StatusOr<Value> v = session->Read(0);
      ASSERT_TRUE(v.ok()) << v.status().ToString();
      ASSERT_TRUE(session->Write(0, *v + 1).ok());
      ASSERT_TRUE(session->Commit().ok());
    }
    EXPECT_EQ(engine.store()->LatestCommittedSnapshot(), (ValueVector{55, 50}));
    EXPECT_GT(metrics.validations.value(), 0);
    retired.push_back(metrics.engine_retired_tx.value());
  }
  EXPECT_GT(retired[0], 0);
  EXPECT_EQ(retired[1], retired[0]);
}

TEST(EngineSessionTest, WriteParksOnABlockingLockInsteadOfVanishing) {
  // S2PL blocks a write behind another transaction's read lock. The write
  // must park (here: until the blocked budget aborts it), never report OK
  // for a write the controller did not perform.
  ProtocolMetrics metrics;
  EngineOptions options = BaseOptions(&metrics);
  options.max_blocked_us = 10'000;
  options.controller_factory = MakeControllerFactory(ProtocolKind::kStrict2pl);
  Engine engine(std::move(options));
  std::unique_ptr<Session> reader = engine.OpenSession();
  std::unique_ptr<Session> writer = engine.OpenSession();
  ASSERT_TRUE(reader->Begin(Spec("reader")).ok());
  ASSERT_TRUE(reader->Read(0).ok());
  ASSERT_TRUE(writer->Begin(Spec("writer")).ok());
  Status write = writer->Write(0, 42);
  EXPECT_EQ(write.code(), StatusCode::kAborted) << write.ToString();
  EXPECT_FALSE(writer->in_transaction());
  EXPECT_GE(metrics.deadline_aborts.value(), 1);
  EXPECT_EQ(engine.store()->ChainSize(0), 1);  // No version was appended.
  ASSERT_TRUE(reader->Commit().ok());
  // With the lock free, the retried write goes through.
  ASSERT_TRUE(writer->Begin(Spec("writer")).ok());
  EXPECT_TRUE(writer->Write(0, 42).ok());
  EXPECT_TRUE(writer->Commit().ok());
  EXPECT_EQ(engine.store()->LatestCommittedSnapshot(), (ValueVector{42, 50}));
}

}  // namespace
}  // namespace nonserial
