#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "model/execution.h"

namespace nonserial {
namespace {

// A two-leaf tree over entities {x=0, y=1, z=2}: t.0 writes x := x + 1;
// t.1 writes y := x * 2 (reading x); t_f reads everything.
struct SimpleTree {
  TransactionTree tree;
  int leaf0, leaf1, tf, root;

  explicit SimpleTree(std::vector<std::pair<int, int>> partial_order = {}) {
    LeafProgram p0;
    p0.AddWrite(0, Expr::Add(Expr::Var(0), Expr::Const(1)));
    LeafProgram p1;
    p1.AddWrite(1, Expr::Mul(Expr::Var(0), Expr::Const(2)));
    LeafProgram pf;
    pf.AddRead(0);
    pf.AddRead(1);
    pf.AddRead(2);
    leaf0 = tree.AddLeaf("t.0", p0);
    leaf1 = tree.AddLeaf("t.1", p1);
    tf = tree.AddLeaf("t.f", pf);
    if (partial_order.empty()) {
      partial_order = {{0, 2}, {1, 2}};  // Both before t_f.
    }
    root = tree.AddInternal("t", {leaf0, leaf1, tf}, partial_order,
                            Specification(), /*final_child=*/2);
    tree.SetRoot(root);
  }
};

TEST(SerialExecutionTest, DefaultOrderComputesSequentially) {
  SimpleTree t;
  auto exec = MakeSerialExecution(t.tree, {10, 0, 7});
  ASSERT_TRUE(exec.ok());
  // Serial t.0 then t.1: x = 11, y = 22, z = 7.
  ExecutionEvaluator eval(t.tree, *exec);
  auto out = eval.OutputOf(t.root);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, (UniqueState{11, 22, 7}));
}

TEST(SerialExecutionTest, ExplicitOrderRespected) {
  SimpleTree t;
  std::map<int, std::vector<int>> orders = {{t.root, {1, 0, 2}}};
  auto exec = MakeSerialExecution(t.tree, {10, 0, 7}, &orders);
  ASSERT_TRUE(exec.ok());
  // t.1 first: y = 20; then t.0: x = 11.
  ExecutionEvaluator eval(t.tree, *exec);
  auto out = eval.OutputOf(t.root);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, (UniqueState{11, 20, 7}));
}

TEST(SerialExecutionTest, OrderViolatingPartialOrderRejected) {
  SimpleTree t({{0, 1}, {0, 2}, {1, 2}});  // t.0 before t.1.
  std::map<int, std::vector<int>> orders = {{t.root, {1, 0, 2}}};
  EXPECT_FALSE(MakeSerialExecution(t.tree, {10, 0, 7}, &orders).ok());
}

TEST(SerialExecutionTest, SerialExecutionPassesAllChecks) {
  SimpleTree t;
  auto exec = MakeSerialExecution(t.tree, {10, 0, 7});
  ASSERT_TRUE(exec.ok());
  EXPECT_TRUE(ValidateExecutionStructure(t.tree, *exec).ok());
  EXPECT_TRUE(CheckParentBased(t.tree, *exec).ok());
  EXPECT_TRUE(CheckCorrectness(t.tree, *exec).ok());
  EXPECT_TRUE(CheckCorrectExecution(t.tree, *exec).ok());
}

TEST(ExecutionCheckTest, MissingNodeExecutionRejected) {
  SimpleTree t;
  TreeExecution exec;
  exec.root_input = {10, 0, 7};
  EXPECT_FALSE(ValidateExecutionStructure(t.tree, exec).ok());
}

TEST(ExecutionCheckTest, PartialOrderInvalidationDetected) {
  // P: t.0 before t.1; R: t.1 before t.0 — violates the execution rule.
  SimpleTree t({{0, 1}, {0, 2}, {1, 2}});
  auto exec = MakeSerialExecution(t.tree, {10, 0, 7});
  ASSERT_TRUE(exec.ok());
  NodeExecution& ne = exec->node_executions[t.root];
  ne.reads_from.push_back({1, 0});  // (t.1, t.0) ∈ R against P.
  Status status = ValidateExecutionStructure(t.tree, *exec);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("partial order invalidation"),
            std::string::npos);
}

// A root over n empty leaves with partial order P and reads-from R. Only the
// structure is checked, so the inputs stay empty.
struct FlatExecution {
  TransactionTree tree;
  TreeExecution exec;
  int root = -1;

  FlatExecution(int n, std::vector<std::pair<int, int>> p,
                std::vector<std::pair<int, int>> r) {
    std::vector<int> leaves;
    for (int i = 0; i < n; ++i) {
      leaves.push_back(tree.AddLeaf("t." + std::to_string(i), LeafProgram()));
    }
    root = tree.AddInternal("t", leaves, std::move(p), Specification(), -1);
    tree.SetRoot(root);
    NodeExecution ne;
    ne.inputs.assign(n, ValueVector());
    ne.reads_from = std::move(r);
    exec.node_executions[root] = std::move(ne);
  }

  Status Validate() const { return ValidateExecutionStructure(tree, exec); }

  std::string Violation(int i, int j) const {
    return "partial order invalidation at node " + std::to_string(root) +
           ": children " + std::to_string(i) + " -> " + std::to_string(j) +
           " ordered by P but R+ orders " + std::to_string(j) + " -> " +
           std::to_string(i);
  }
};

TEST(OrderInvalidationTest, MixedCycleAcrossPAndRAccepted) {
  // P a->b, R b->c, P c->d, R d->a: the union is cyclic, but no pair is
  // ordered one way by P+ and the other way by R+.
  FlatExecution f(4, {{0, 1}, {2, 3}}, {{1, 2}, {3, 0}});
  EXPECT_TRUE(f.Validate().ok()) << f.Validate().ToString();
}

TEST(OrderInvalidationTest, ReachBackThroughAnRCycleRejected) {
  // P 0->1; R reaches 1 -> 0 only through the cycle 2 <-> 3.
  FlatExecution f(4, {{0, 1}}, {{1, 2}, {2, 3}, {3, 2}, {3, 0}});
  Status status = f.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.message(), f.Violation(0, 1));
  // The P-ordered pair lies on one R cycle: its component reaches itself.
  FlatExecution inside(3, {{0, 1}}, {{0, 2}, {2, 1}, {1, 0}});
  EXPECT_EQ(inside.Validate().message(), inside.Violation(0, 1));
}

TEST(OrderInvalidationTest, ReachBackThroughASelfLoopRejected) {
  // P 0->1; R reaches 1 -> 0 only through 2, which reads from itself.
  FlatExecution f(3, {{0, 1}}, {{1, 2}, {2, 2}, {2, 0}});
  Status status = f.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.message(), f.Violation(0, 1));
  // Self-loops alone order no pair against P.
  FlatExecution loops(3, {{0, 1}, {1, 2}}, {{0, 0}, {1, 1}, {2, 2}});
  EXPECT_TRUE(loops.Validate().ok());
}

TEST(OrderInvalidationTest, ReportsTheRowMajorFirstPairAcrossBlocks) {
  // Violations (70, 100) in source block 1 and (5, 120), (5, 110), (10, 20)
  // in block 0; the first in row-major order is (5, 110).
  std::vector<std::pair<int, int>> p = {{70, 100}, {5, 120}, {5, 110},
                                        {10, 20}};
  std::vector<std::pair<int, int>> r = {{100, 70}, {120, 5}, {110, 5},
                                        {20, 10}};
  FlatExecution f(130, p, r);
  EXPECT_EQ(f.Validate().message(), f.Violation(5, 110));
  // With block 0 clean, block 1's violation is reported.
  FlatExecution block1(130, {{70, 100}, {5, 120}}, {{100, 70}});
  EXPECT_EQ(block1.Validate().message(), block1.Violation(70, 100));
}

// Non-empty-path reachability by DFS from every node: reach[i][j] iff a
// path of at least one edge leads from i to j.
std::vector<std::vector<bool>> BruteForceReach(
    int n, const std::vector<std::pair<int, int>>& edges) {
  std::vector<std::vector<int>> out(n);
  for (auto [a, b] : edges) out[a].push_back(b);
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  for (int s = 0; s < n; ++s) {
    std::vector<int> stack = out[s];
    while (!stack.empty()) {
      int v = stack.back();
      stack.pop_back();
      if (reach[s][v]) continue;
      reach[s][v] = true;
      for (int w : out[v]) stack.push_back(w);
    }
  }
  return reach;
}

TEST(OrderInvalidationTest, MatchesBruteForceReachabilityOnRandomGraphs) {
  int rejected = 0;
  int accepted = 0;
  for (uint64_t seed = 1; seed <= 600; ++seed) {
    Rng rng(seed);
    int n = 1 + static_cast<int>(rng.Uniform(200));
    // P is acyclic: its edges follow a random permutation of the children.
    std::vector<int> rank(n);
    std::iota(rank.begin(), rank.end(), 0);
    for (int i = n - 1; i > 0; --i) {
      std::swap(rank[i], rank[rng.Uniform(static_cast<uint32_t>(i + 1))]);
    }
    std::vector<std::pair<int, int>> p;
    int p_edges = static_cast<int>(rng.Uniform(2 * n + 1));
    for (int e = 0; e < p_edges && n > 1; ++e) {
      int a = static_cast<int>(rng.Uniform(n));
      int b = static_cast<int>(rng.Uniform(n));
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      p.push_back({rank[a], rank[b]});
    }
    // R is arbitrary: cycles and self-loops included. Sparse R leaves many
    // histories valid; dense R rejects most.
    std::vector<std::pair<int, int>> r;
    int r_edges = static_cast<int>(rng.Uniform(n + 1)) / (1 + seed % 4);
    for (int e = 0; e < r_edges; ++e) {
      int a = static_cast<int>(rng.Uniform(n));
      int b = rng.Bernoulli(0.05) ? a : static_cast<int>(rng.Uniform(n));
      r.push_back({a, b});
    }

    std::vector<std::vector<bool>> p_reach = BruteForceReach(n, p);
    std::vector<std::vector<bool>> r_reach = BruteForceReach(n, r);
    FlatExecution f(n, p, r);
    std::string expected;  // The row-major first violation, if any.
    for (int i = 0; i < n && expected.empty(); ++i) {
      for (int j = 0; j < n; ++j) {
        if (p_reach[i][j] && r_reach[j][i]) {
          expected = f.Violation(i, j);
          break;
        }
      }
    }
    Status status = f.Validate();
    ASSERT_EQ(status.ok(), expected.empty()) << "seed " << seed;
    if (!status.ok()) {
      ASSERT_EQ(status.message(), expected) << "seed " << seed;
      ++rejected;
    } else {
      ++accepted;
    }
  }
  // Both verdicts are exercised.
  EXPECT_GT(rejected, 100);
  EXPECT_GT(accepted, 100);
}

TEST(ExecutionCheckTest, ParentBasedViolationDetected) {
  SimpleTree t;
  auto exec = MakeSerialExecution(t.tree, {10, 0, 7});
  ASSERT_TRUE(exec.ok());
  // Corrupt t.1's input: value 999 comes from nobody.
  exec->node_executions[t.root].inputs[1][0] = 999;
  EXPECT_TRUE(ValidateExecutionStructure(t.tree, *exec).ok());
  EXPECT_FALSE(CheckParentBased(t.tree, *exec).ok());
}

TEST(ExecutionCheckTest, ParentBasedReportsTheSmallestUnjustifiedEntity) {
  SimpleTree t;
  auto exec = MakeSerialExecution(t.tree, {10, 0, 7});
  ASSERT_TRUE(exec.ok());
  // t.1 reads from t.0, whose output has x = 11.
  ValueVector& x1 = exec->node_executions[t.root].inputs[1];
  x1 = {999, 0, 555};
  Status both = CheckParentBased(t.tree, *exec);
  EXPECT_EQ(both.message(),
            "child 1 of node 3 reads entity 0 = 999 which comes neither from "
            "the parent input nor from any sibling it reads from");
  x1 = {11, 0, 555};  // t.0 justifies x; z stays unjustified.
  Status z_only = CheckParentBased(t.tree, *exec);
  EXPECT_EQ(z_only.message(),
            "child 1 of node 3 reads entity 2 = 555 which comes neither from "
            "the parent input nor from any sibling it reads from");
}

TEST(ExecutionCheckTest, MultiversionReadIsParentBased) {
  // t.1 reads the *parent's* x although t.0 wrote x first — legal in the
  // model (multiple versions), impossible in a single-version serial run.
  SimpleTree t;
  auto exec = MakeSerialExecution(t.tree, {10, 0, 7});
  ASSERT_TRUE(exec.ok());
  NodeExecution& ne = exec->node_executions[t.root];
  ne.inputs[1][0] = 10;  // Parent's version of x, not t.0's 11.
  // t_f now observes y = 20 from t.1 and x = 11 from t.0 directly.
  ne.reads_from.push_back({0, 2});
  ne.inputs[2] = {11, 20, 7};
  EXPECT_TRUE(CheckParentBased(t.tree, *exec).ok());
}

TEST(ExecutionCheckTest, InputPredicateViolationDetected) {
  SimpleTree t;
  t.tree.mutable_node(t.leaf1).spec.input.AddClause(
      Clause({EntityVsConst(0, CompareOp::kGe, 100)}));
  auto exec = MakeSerialExecution(t.tree, {10, 0, 7});
  ASSERT_TRUE(exec.ok());
  Status status = CheckCorrectness(t.tree, *exec);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("input predicate"), std::string::npos);
}

TEST(ExecutionCheckTest, OutputPredicateViolationDetected) {
  SimpleTree t;
  t.tree.mutable_node(t.root).spec.output.AddClause(
      Clause({EntityVsConst(1, CompareOp::kGe, 1000)}));
  auto exec = MakeSerialExecution(t.tree, {10, 0, 7});
  ASSERT_TRUE(exec.ok());
  Status status = CheckCorrectness(t.tree, *exec);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("output predicate"), std::string::npos);
}

TEST(ExecutionCheckTest, SatisfiedSpecificationsPass) {
  SimpleTree t;
  t.tree.mutable_node(t.leaf1).spec.input.AddClause(
      Clause({EntityVsConst(0, CompareOp::kGe, 10)}));
  t.tree.mutable_node(t.root).spec.output.AddClause(
      Clause({EntityVsConst(1, CompareOp::kGe, 20)}));
  auto exec = MakeSerialExecution(t.tree, {10, 0, 7});
  ASSERT_TRUE(exec.ok());
  EXPECT_TRUE(CheckCorrectExecution(t.tree, *exec).ok());
}

// The Figure 1 tree: t with children t.0, t.1, t.2; t.0 has leaves
// t.0.0..t.0.2; t.1 has t.1.0 (itself nested: t.1.0.0, t.1.0.1) and t.1.1
// (t.1.1.0..t.1.1.2); t.2 has t.2.0. We realize it with counter bumps.
TEST(NestedExecutionTest, Figure1TreeSerialExecutionIsCorrect) {
  TransactionTree tree;
  auto bump = [&](const std::string& name, EntityId e) {
    LeafProgram p;
    p.AddWrite(e, Expr::Add(Expr::Var(e), Expr::Const(1)));
    return tree.AddLeaf(name, p);
  };
  // t.0: three leaves, sequential.
  int t00 = bump("t.0.0", 0);
  int t01 = bump("t.0.1", 0);
  int t02 = bump("t.0.2", 1);
  int t0 = tree.AddInternal("t.0", {t00, t01, t02}, {{0, 1}, {1, 2}},
                            Specification(), 2);
  // t.1.0: two leaves.
  int t100 = bump("t.1.0.0", 1);
  int t101 = bump("t.1.0.1", 2);
  int t10 = tree.AddInternal("t.1.0", {t100, t101}, {{0, 1}},
                             Specification(), 1);
  // t.1.1: three leaves, unordered.
  int t110 = bump("t.1.1.0", 0);
  int t111 = bump("t.1.1.1", 1);
  int t112 = bump("t.1.1.2", 2);
  int t11 = tree.AddInternal("t.1.1", {t110, t111, t112}, {},
                             Specification(), 2);
  int t1 = tree.AddInternal("t.1", {t10, t11}, {}, Specification(), 1);
  // t.2: one leaf.
  int t20 = bump("t.2.0", 2);
  int t2 = tree.AddInternal("t.2", {t20}, {}, Specification(), 0);
  int root = tree.AddInternal("t", {t0, t1, t2}, {{0, 1}, {1, 2}},
                              Specification(), 2);
  tree.SetRoot(root);
  ASSERT_TRUE(tree.Validate().ok());

  auto exec = MakeSerialExecution(tree, {0, 0, 0});
  ASSERT_TRUE(exec.ok());
  EXPECT_TRUE(CheckCorrectExecution(tree, *exec).ok());

  ExecutionEvaluator eval(tree, *exec);
  auto out = eval.OutputOf(root);
  ASSERT_TRUE(out.ok());
  // Writes: e0 bumped by t.0.0, t.0.1, t.1.1.0 = 3;
  // e1 by t.0.2, t.1.0.0, t.1.1.1 = 3; e2 by t.1.0.1, t.1.1.2, t.2.0 = 3.
  EXPECT_EQ(*out, (UniqueState{3, 3, 3}));
  (void)t1;
  (void)t2;
}

TEST(EvaluatorTest, InputOfRootIsRootInput) {
  SimpleTree t;
  auto exec = MakeSerialExecution(t.tree, {10, 0, 7});
  ASSERT_TRUE(exec.ok());
  ExecutionEvaluator eval(t.tree, *exec);
  auto input = eval.InputOf(t.root);
  ASSERT_TRUE(input.ok());
  EXPECT_EQ(*input, (ValueVector{10, 0, 7}));
}

TEST(EvaluatorTest, NodeWithoutFinalChildHasNoOutput) {
  TransactionTree tree;
  int leaf = tree.AddLeaf("t.0", LeafProgram());
  int root = tree.AddInternal("t", {leaf}, {}, Specification(), -1);
  tree.SetRoot(root);
  TreeExecution exec;
  exec.root_input = {};
  NodeExecution ne;
  ne.inputs = {ValueVector{}};
  exec.node_executions[root] = ne;
  ExecutionEvaluator eval(tree, exec);
  EXPECT_FALSE(eval.OutputOf(root).ok());
}

}  // namespace
}  // namespace nonserial
