#include <gtest/gtest.h>

#include "core/database.h"
#include "workload/nested_gen.h"

namespace nonserial {
namespace {

TEST(NestedSimTest, SmallNestedWorkloadCommitsEverything) {
  NestedWorkloadParams params;
  params.num_projects = 3;
  params.members_per_project = 3;
  params.entities_per_project = 4;
  params.think_time = 40;
  params.project_chain_prob = 0.5;
  params.member_chain_prob = 0.4;
  params.seed = 5;
  NestedWorkload nw = MakeNestedDesignWorkload(params);

  Simulator sim;
  std::shared_ptr<VersionStore> store;
  std::shared_ptr<ConcurrencyController> controller;
  SimResult result = sim.Run(
      nw.workload,
      MakeControllerFactory(ProtocolKind::kNestedCep, {.nested = nw.nested}),
      &store, &controller);
  EXPECT_TRUE(result.all_committed);
  // Every entity stays within bounds: the scope constraints held.
  for (Value v : result.final_state) {
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 100);
  }
  const auto* nested =
      dynamic_cast<const NestedCepController*>(controller.get());
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->stats().group_commits, 3);
  // Every group transaction committed at the top level too.
  for (int g = 0; g < 3; ++g) {
    EXPECT_TRUE(nested->GroupCommitted(g));
    EXPECT_TRUE(nested->top_cep().IsCommitted(g));
  }
}

class NestedSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NestedSweepTest, NestedRunsConvergeAcrossSeeds) {
  NestedWorkloadParams params;
  params.num_projects = 4;
  params.members_per_project = 4;
  params.entities_per_project = 4;
  params.think_time = 60;
  params.project_chain_prob = 0.5;
  params.member_chain_prob = 0.5;
  params.seed = GetParam();
  NestedWorkload nw = MakeNestedDesignWorkload(params);

  Simulator sim;
  SimResult result = sim.Run(
      nw.workload,
      MakeControllerFactory(ProtocolKind::kNestedCep, {.nested = nw.nested}));
  EXPECT_TRUE(result.all_committed) << "seed " << GetParam();
  for (Value v : result.final_state) {
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 100);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NestedSweepTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(NestedSimTest, ChainedProjectsSeeEachOthersResults) {
  // Two projects over one shared entity; project B follows project A. B's
  // member must observe A's published write.
  NestedWorkload nw;
  nw.workload.initial = {50};
  nw.workload.objects = {{0}};
  Predicate bounds;
  bounds.AddClause(Clause({EntityVsConst(0, CompareOp::kGe, 0)}));
  bounds.AddClause(Clause({EntityVsConst(0, CompareOp::kLe, 100)}));

  NestedGroup a;
  a.name = "A";
  a.input = bounds;
  NestedGroup b;
  b.name = "B";
  b.input = bounds;
  b.predecessors = {0};
  nw.nested.groups = {a, b};
  nw.nested.group_of_tx = {0, 1};

  SimTx ta;
  ta.name = "a member";
  ta.input = bounds;
  ta.steps = {SimStep::Read(0), SimStep::Write(0, Expr::Const(75))};
  SimTx tb;
  tb.name = "b member";
  tb.input = bounds;
  tb.arrival = 1;
  tb.steps = {SimStep::Read(0),
              SimStep::Write(0, Expr::Add(Expr::Var(0), Expr::Const(1)))};
  nw.workload.txs = {ta, tb};

  Simulator sim;
  SimResult result = sim.Run(
      nw.workload,
      MakeControllerFactory(ProtocolKind::kNestedCep, {.nested = nw.nested}));
  ASSERT_TRUE(result.all_committed);
  EXPECT_EQ(result.final_state[0], 76);  // 75 from A, +1 from B.
}

}  // namespace
}  // namespace nonserial
