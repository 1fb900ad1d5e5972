#include <gtest/gtest.h>

#include "classes/recognizers.h"
#include "classes/recoverability.h"
#include "core/database.h"
#include "engine/engine.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"
#include "workload/generators.h"

namespace nonserial {
namespace {

// A tiny two-transaction workload: t0 bumps x, t1 bumps y.
SimWorkload DisjointWorkload() {
  SimWorkload w;
  w.initial = {50, 50};
  w.objects = {{0}, {1}};
  for (int i = 0; i < 2; ++i) {
    SimTx tx;
    tx.name = i == 0 ? "bump-x" : "bump-y";
    EntityId e = i;
    tx.input = Range(e, 0, 100);
    tx.output = Range(e, 0, 100);
    tx.steps = {SimStep::Read(e),
                SimStep::Write(e, Expr::Add(Expr::Var(e), Expr::Const(1)))};
    tx.arrival = i;
    w.txs.push_back(std::move(tx));
  }
  return w;
}

class AllProtocolsTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(AllProtocolsTest, DisjointWorkloadCommitsEverywhere) {
  SimWorkload w = DisjointWorkload();
  Simulator sim;
  SimResult result =
      sim.Run(w, MakeControllerFactory(GetParam(), ProtocolSetupOf(w)));
  EXPECT_TRUE(result.all_committed);
  EXPECT_EQ(result.committed_count, 2);
  EXPECT_EQ(result.final_state, (ValueVector{51, 51}));
  EXPECT_EQ(result.total_aborts, 0);
}

TEST_P(AllProtocolsTest, ConflictingWorkloadStillConverges) {
  // Both transactions read and bump the same entity.
  SimWorkload w;
  w.initial = {50};
  w.objects = {{0}};
  for (int i = 0; i < 2; ++i) {
    SimTx tx;
    tx.name = i == 0 ? "a" : "b";
    tx.input = Range(0, 0, 100);
    tx.output = Range(0, 0, 100);
    tx.steps = {SimStep::Read(0),
                SimStep::Write(0, Expr::Add(Expr::Var(0), Expr::Const(1)))};
    tx.arrival = i;
    w.txs.push_back(std::move(tx));
  }
  Simulator sim;
  SimResult result =
      sim.Run(w, MakeControllerFactory(GetParam(), ProtocolSetupOf(w)));
  EXPECT_TRUE(result.all_committed) << ProtocolKindName(GetParam());
  // Depending on the protocol the final value is 51 (lost-update-free
  // multiversion mix is legal under CEP: both read 50) or 52 (serial).
  EXPECT_GE(result.final_state[0], 51);
  EXPECT_LE(result.final_state[0], 52);
}

TEST_P(AllProtocolsTest, PrecedenceChainRespected) {
  // t1 must follow t0. Under every protocol t1 observes t0's write.
  SimWorkload w;
  w.initial = {50};
  w.objects = {{0}};
  SimTx t0;
  t0.name = "first";
  t0.input = Range(0, 0, 100);
  t0.output = Range(0, 0, 100);
  t0.steps = {SimStep::Read(0), SimStep::Write(0, Expr::Const(60))};
  SimTx t1;
  t1.name = "second";
  t1.input = Range(0, 0, 100);
  t1.output = Range(0, 0, 100);
  t1.steps = {SimStep::Read(0),
              SimStep::Write(0, Expr::Add(Expr::Var(0), Expr::Const(1)))};
  t1.predecessors = {0};
  w.txs = {t0, t1};
  Simulator sim;
  SimResult result =
      sim.Run(w, MakeControllerFactory(GetParam(), ProtocolSetupOf(w)));
  ASSERT_TRUE(result.all_committed) << ProtocolKindName(GetParam());
  EXPECT_EQ(result.final_state[0], 61) << ProtocolKindName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, AllProtocolsTest,
    ::testing::Values(ProtocolKind::kCep, ProtocolKind::kStrict2pl,
                      ProtocolKind::kPredicatewise2pl, ProtocolKind::kMvto,
                      ProtocolKind::kPwMvto),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      std::string name = ProtocolKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(SimulatorTest, ThinkTimeExtendsMakespan) {
  SimWorkload fast = DisjointWorkload();
  SimWorkload slow = DisjointWorkload();
  for (SimTx& tx : slow.txs) tx.think_between_ops = 1000;
  Simulator sim;
  SimResult fast_result =
      sim.Run(fast, MakeControllerFactory(ProtocolKind::kCep));
  SimResult slow_result =
      sim.Run(slow, MakeControllerFactory(ProtocolKind::kCep));
  EXPECT_GT(slow_result.makespan, fast_result.makespan + 1000);
}

TEST(SimulatorTest, BlockedTimeAccountedUnder2pl) {
  // Writer holds the lock while thinking; the reader's wait is recorded.
  SimWorkload w;
  w.initial = {50};
  w.objects = {{0}};
  SimTx writer;
  writer.name = "writer";
  writer.input = Range(0, 0, 100);
  writer.output = Predicate::True();
  writer.steps = {SimStep::Write(0, Expr::Const(60)), SimStep::Think(500)};
  SimTx reader;
  reader.name = "reader";
  reader.input = Range(0, 0, 100);
  reader.output = Predicate::True();
  reader.steps = {SimStep::Read(0)};
  reader.arrival = 5;
  w.txs = {writer, reader};
  Simulator sim;
  SimResult result = sim.Run(
      w, MakeControllerFactory(ProtocolKind::kStrict2pl, ProtocolSetupOf(w)));
  ASSERT_TRUE(result.all_committed);
  EXPECT_GT(result.tx[1].blocked_time, 400);
  // Under CEP the reader never waits for the thinker.
  SimResult cep = sim.Run(w, MakeControllerFactory(ProtocolKind::kCep));
  ASSERT_TRUE(cep.all_committed);
  EXPECT_LT(cep.tx[1].blocked_time, 10);
}

TEST(SimulatorTest, AbortsCountedAndRetried) {
  // MVTO: old transaction writes after a younger read — aborts, restarts,
  // and eventually commits.
  SimWorkload w;
  w.initial = {50};
  w.objects = {{0}};
  SimTx old_tx;
  old_tx.name = "old";
  old_tx.input = Range(0, 0, 100);
  old_tx.steps = {SimStep::Think(10), SimStep::Write(0, Expr::Const(60))};
  SimTx young;
  young.name = "young";
  young.input = Range(0, 0, 100);
  young.arrival = 1;
  young.steps = {SimStep::Read(0)};
  w.txs = {old_tx, young};
  Simulator sim;
  SimResult result = sim.Run(w, MakeControllerFactory(ProtocolKind::kMvto));
  EXPECT_TRUE(result.all_committed);
  EXPECT_GE(result.total_aborts, 1);
  EXPECT_GE(result.total_wasted_ops, 0);
}

TEST(SimulatorTest, GeneratedDesignWorkloadConvergesUnderAllProtocols) {
  DesignWorkloadParams params;
  params.num_txs = 10;
  params.num_entities = 16;
  params.num_conjuncts = 4;
  params.think_time = 20;
  params.precedence_prob = 0.3;
  params.seed = 7;
  SimWorkload w = MakeDesignWorkload(params);
  for (ProtocolKind kind :
       {ProtocolKind::kCep, ProtocolKind::kStrict2pl,
        ProtocolKind::kPredicatewise2pl, ProtocolKind::kMvto,
        ProtocolKind::kPwMvto}) {
    Simulator sim;
    SimResult result =
        sim.Run(w, MakeControllerFactory(kind, ProtocolSetupOf(w)));
    EXPECT_TRUE(result.all_committed) << ProtocolKindName(kind);
    // The database constraint holds on the final state.
    EXPECT_TRUE(WorkloadConstraint(w).Eval(result.final_state))
        << ProtocolKindName(kind);
  }
}

TEST(SimulatorTest, EmittedHistoryRecordsCommittedOps) {
  SimWorkload w = DisjointWorkload();
  Simulator sim;
  SimResult result = sim.Run(w, MakeControllerFactory(ProtocolKind::kCep));
  ASSERT_TRUE(result.all_committed);
  const EmittedHistory& history = result.history;
  // 2 txs x (1 read + 1 write) = 4 ops.
  EXPECT_EQ(history.schedule.ops().size(), 4u);
  EXPECT_EQ(history.committed.size(), 2u);
  EXPECT_TRUE(ValidateCommitPoints(history.schedule, history.commits).ok());
  // Disjoint entities: trivially conflict serializable and strict.
  EXPECT_TRUE(IsConflictSerializable(history.schedule));
  EXPECT_TRUE(IsStrict(history.schedule, history.commits));
}

TEST(SimulatorTest, EmittedHistoryExcludesAbortedAttempts) {
  // MVTO scenario with a guaranteed abort: the final history must contain
  // only the committed attempts' operations.
  SimWorkload w;
  w.initial = {50};
  w.objects = {{0}};
  SimTx old_tx;
  old_tx.name = "old";
  old_tx.input = Range(0, 0, 100);
  old_tx.steps = {SimStep::Think(10), SimStep::Write(0, Expr::Const(60))};
  SimTx young;
  young.name = "young";
  young.input = Range(0, 0, 100);
  young.arrival = 1;
  young.steps = {SimStep::Read(0)};
  w.txs = {old_tx, young};
  Simulator sim;
  SimResult result = sim.Run(w, MakeControllerFactory(ProtocolKind::kMvto));
  ASSERT_TRUE(result.all_committed);
  ASSERT_GE(result.total_aborts, 1);
  // Committed attempts performed exactly 1 write (old) + 1 read (young).
  EXPECT_EQ(result.history.schedule.ops().size(), 2u);
}

TEST(SimulatorTest, Strict2plHistoryIsSerializableAndStrict) {
  DesignWorkloadParams params;
  params.num_txs = 8;
  params.num_entities = 8;
  params.think_time = 30;
  params.seed = 21;
  SimWorkload w = MakeDesignWorkload(params);
  Simulator sim;
  SimResult result =
      sim.Run(w, MakeControllerFactory(ProtocolKind::kStrict2pl,
                                       ProtocolSetupOf(w)));
  ASSERT_TRUE(result.all_committed);
  EXPECT_TRUE(IsConflictSerializable(result.history.schedule));
  EXPECT_TRUE(IsStrict(result.history.schedule, result.history.commits));
  EXPECT_TRUE(IsRecoverable(result.history.schedule, result.history.commits));
}

TEST(SimulatorTest, RunsAreReproducible) {
  // The scheduler is single-threaded and virtual-time: one workload and
  // config give one run, down to the emitted history.
  DesignWorkloadParams params;
  params.num_txs = 12;
  params.num_entities = 10;
  params.think_time = 40;
  params.precedence_prob = 0.3;
  params.seed = 11;
  SimWorkload w = MakeDesignWorkload(params);
  for (ProtocolKind kind : {ProtocolKind::kCep, ProtocolKind::kStrict2pl,
                            ProtocolKind::kMvto}) {
    Simulator sim;
    SimResult first =
        sim.Run(w, MakeControllerFactory(kind, ProtocolSetupOf(w)));
    SimResult second =
        sim.Run(w, MakeControllerFactory(kind, ProtocolSetupOf(w)));
    const char* name = ProtocolKindName(kind);
    EXPECT_EQ(first.makespan, second.makespan) << name;
    ASSERT_EQ(first.tx.size(), second.tx.size()) << name;
    for (size_t i = 0; i < first.tx.size(); ++i) {
      EXPECT_EQ(first.tx[i].committed, second.tx[i].committed) << name;
      EXPECT_EQ(first.tx[i].aborts, second.tx[i].aborts) << name;
      EXPECT_EQ(first.tx[i].blocked_time, second.tx[i].blocked_time) << name;
      EXPECT_EQ(first.tx[i].begin_time, second.tx[i].begin_time) << name;
      EXPECT_EQ(first.tx[i].commit_time, second.tx[i].commit_time) << name;
      EXPECT_EQ(first.tx[i].wasted_ops, second.tx[i].wasted_ops) << name;
    }
    EXPECT_EQ(first.history.schedule.ops(), second.history.schedule.ops())
        << name;
    EXPECT_EQ(first.history.committed, second.history.committed) << name;
    EXPECT_EQ(first.final_state, second.final_state) << name;
  }
}

TEST(SimulatorTest, PlannedOpsExtraction) {
  SimWorkload w = DisjointWorkload();
  auto planned = ProtocolSetupOf(w).planned_ops;
  ASSERT_EQ(planned.size(), 2u);
  EXPECT_EQ(planned[0].size(), 2u);
  EXPECT_FALSE(planned[0][0].is_write);  // Read.
  EXPECT_TRUE(planned[0][1].is_write);   // Write.
}

}  // namespace
}  // namespace nonserial
