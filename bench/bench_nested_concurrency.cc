// Experiment E10 — nested transactions (Section 2.2, Figure 1): the tree
// structure lets subtransactions run in parallel while the partial order
// keeps the design process coherent.
//
// Part A checks the Figure 1 tree itself at the model layer: every
// P-consistent serial order of the nested execution is a correct execution.
//
// Part B runs task trees through the simulator: each tree node is a design
// task (a transaction writing its own entity after consulting its parent's),
// with P edges parent -> child. We sweep fan-out and depth and compare the
// protocols' makespan: the critical path is depth x duration; width is free
// concurrency a good protocol should exploit.

#include <cstdio>
#include <string>
#include <vector>

#include "core/database.h"
#include "model/execution.h"
#include "workload/generators.h"
#include "workload/nested_gen.h"

#include "bench_util.h"

namespace nonserial {
namespace {

// --- Part A: the Figure 1 tree at the model layer -----------------------

TransactionTree BuildFigure1Tree() {
  TransactionTree tree;
  auto bump = [&](const std::string& name, EntityId e) {
    LeafProgram p;
    p.AddWrite(e, Expr::Add(Expr::Var(e), Expr::Const(1)));
    return tree.AddLeaf(name, p);
  };
  int t00 = bump("t.0.0", 0), t01 = bump("t.0.1", 0), t02 = bump("t.0.2", 1);
  int t0 = tree.AddInternal("t.0", {t00, t01, t02}, {{0, 1}, {1, 2}},
                            Specification(), 2);
  int t100 = bump("t.1.0.0", 1), t101 = bump("t.1.0.1", 2);
  int t10 =
      tree.AddInternal("t.1.0", {t100, t101}, {{0, 1}}, Specification(), 1);
  int t110 = bump("t.1.1.0", 0), t111 = bump("t.1.1.1", 1),
      t112 = bump("t.1.1.2", 2);
  int t11 = tree.AddInternal("t.1.1", {t110, t111, t112}, {},
                             Specification(), 2);
  int t1 = tree.AddInternal("t.1", {t10, t11}, {}, Specification(), 1);
  int t20 = bump("t.2.0", 2);
  int t2 = tree.AddInternal("t.2", {t20}, {}, Specification(), 0);
  int root = tree.AddInternal("t", {t0, t1, t2}, {{0, 1}, {1, 2}},
                              Specification(), 2);
  tree.SetRoot(root);
  return tree;
}

bool PartA() {
  TransactionTree tree = BuildFigure1Tree();
  // Exercise several P-consistent orders of t.1.1's unordered children and
  // of t.1's children: all must give correct executions with identical
  // final counters (the commutative bumps).
  // Node ids are assigned in creation order: t.1.1 is node 10. Its
  // children are unordered by P, but the designated final child (t.1.1.2,
  // position 2) must still run last — it is the t_f whose input state is
  // the node's result.
  std::vector<std::map<int, std::vector<int>>> orders = {
      {},
      {{10, {1, 0, 2}}},  // t.1.1.0 and t.1.1.1 swapped.
  };
  int correct = 0;
  for (const auto& order : orders) {
    auto exec = MakeSerialExecution(tree, {0, 0, 0}, &order);
    if (!exec.ok()) continue;
    if (!CheckCorrectExecution(tree, *exec).ok()) continue;
    ExecutionEvaluator eval(tree, *exec);
    auto out = eval.OutputOf(tree.root());
    if (out.ok() && *out == UniqueState{3, 3, 3}) ++correct;
  }
  std::printf("Part A: Figure 1 tree — %d/%zu P-consistent executions are "
              "correct with final state {3,3,3}.\n\n",
              correct, orders.size());
  return correct == static_cast<int>(orders.size());
}

// --- Part B: task trees through the simulator ----------------------------

SimWorkload TaskTreeWorkload(int fanout, int depth, SimTime think) {
  SimWorkload w;
  // One entity per node, breadth-first ids.
  std::vector<int> parent;
  int total = 0;
  for (int level = 0, width = 1; level < depth; ++level, width *= fanout) {
    total += width;
  }
  w.initial.assign(total, 50);
  w.objects = {{}};
  for (EntityId e = 0; e < total; ++e) w.objects[0].insert(e);

  int next = 1;
  std::vector<std::pair<int, int>> frontier = {{0, 0}};  // (node, level).
  parent.assign(total, -1);
  for (size_t i = 0; i < frontier.size(); ++i) {
    auto [node, level] = frontier[i];
    if (level + 1 < depth) {
      for (int c = 0; c < fanout && next < total; ++c) {
        parent[next] = node;
        frontier.push_back({next, level + 1});
        ++next;
      }
    }
  }

  for (int node = 0; node < total; ++node) {
    SimTx tx;
    tx.name = "task" + std::to_string(node);
    tx.think_between_ops = think;
    tx.arrival = 0;
    Predicate input;
    EntityId own = node;
    auto bound = [](EntityId e, CompareOp op, Value v) {
      return Clause({EntityVsConst(e, op, v)});
    };
    if (parent[node] >= 0) {
      EntityId pe = parent[node];
      input.AddClause(bound(pe, CompareOp::kGe, 0));
      input.AddClause(bound(pe, CompareOp::kLe, 100));
      tx.steps.push_back(SimStep::Read(pe));
      tx.predecessors.push_back(parent[node]);
      // Refine the parent's value into the node's own entity.
      tx.steps.push_back(SimStep::Write(
          own, Expr::Min(Expr::Add(Expr::Var(pe), Expr::Const(1)),
                         Expr::Const(100))));
    } else {
      input.AddClause(bound(own, CompareOp::kGe, 0));
      input.AddClause(bound(own, CompareOp::kLe, 100));
      tx.steps.push_back(SimStep::Read(own));
      tx.steps.push_back(SimStep::Write(
          own, Expr::Min(Expr::Add(Expr::Var(own), Expr::Const(1)),
                         Expr::Const(100))));
    }
    tx.input = input;
    Predicate output;
    output.AddClause(bound(own, CompareOp::kGe, 0));
    output.AddClause(bound(own, CompareOp::kLe, 100));
    tx.output = output;
    w.txs.push_back(std::move(tx));
  }
  return w;
}

bool PartB() {
  std::printf("Part B: task trees (think=200 per op). Ideal makespan ~ "
              "depth x task time.\n\n");
  std::printf("%7s %6s %6s %-8s | %9s %10s %8s | %s\n", "fanout", "depth",
              "tasks", "proto", "makespan", "blocked", "aborts", "verified");
  bool ok = true;
  for (int fanout : {1, 2, 4}) {
    for (int depth : {3}) {
      SimWorkload w = TaskTreeWorkload(fanout, depth, 200);
      Predicate constraint = WorkloadConstraint(w);
      SimTime serial_estimate = 0;
      for (ProtocolKind kind :
           {ProtocolKind::kCep, ProtocolKind::kStrict2pl,
            ProtocolKind::kMvto}) {
        RunReport report = RunWorkload(w, kind, constraint);
        const SimResult& r = report.result;
        const char* verified = "-";
        if (kind == ProtocolKind::kCep) {
          verified = report.verification.ok() ? "ok" : "FAILED";
          ok &= report.verification.ok();
        }
        std::printf("%7d %6d %6zu %-8s | %9lld %10lld %8lld | %s\n", fanout,
                    depth, w.txs.size(), report.protocol.c_str(),
                    static_cast<long long>(r.makespan),
                    static_cast<long long>(r.total_blocked),
                    static_cast<long long>(r.total_aborts), verified);
        ok &= r.all_committed;
        if (kind == ProtocolKind::kStrict2pl) serial_estimate = r.makespan;
      }
      // Width must be (nearly) free: quadrupling the tree size at fixed
      // depth should not quadruple the 2PL makespan.
      if (fanout == 4 && serial_estimate >
                              4 * 3 * 200 * depth) {
        ok = false;
      }
      std::printf("\n");
    }
  }
  return ok;
}

// --- Part C: the hierarchical protocol on project trees ------------------

bool PartC() {
  std::printf("\nPart C: two-level Nested-CEP — projects as top-level "
              "transactions, designers as\nsubtransactions (think=100). "
              "Scope commits are relative; projects chain with p=0.5.\n\n");
  std::printf("%9s %8s %-11s | %9s %10s %8s %7s %7s\n", "projects",
              "members", "proto", "makespan", "blocked", "aborts",
              "gcommit", "gresets");
  bool ok = true;
  for (int projects : {2, 4, 8}) {
    NestedWorkloadParams params;
    params.num_projects = projects;
    params.members_per_project = 4;
    params.entities_per_project = 5;
    params.think_time = 100;
    params.project_chain_prob = 0.5;
    params.member_chain_prob = 0.4;
    params.seed = 77;
    NestedWorkload nw = MakeNestedDesignWorkload(params);

    // Hierarchical protocol.
    Simulator sim;
    std::shared_ptr<VersionStore> store;
    std::shared_ptr<ConcurrencyController> controller;
    SimResult nested_result = sim.Run(
        nw.workload,
        MakeControllerFactory(ProtocolKind::kNestedCep, {.nested = nw.nested}),
        &store, &controller);
    const auto* nested =
        dynamic_cast<const NestedCepController*>(controller.get());
    std::printf("%9d %8d %-11s | %9lld %10lld %8lld %7lld %7lld\n", projects,
                params.members_per_project, "Nested-CEP",
                static_cast<long long>(nested_result.makespan),
                static_cast<long long>(nested_result.total_blocked),
                static_cast<long long>(nested_result.total_aborts),
                static_cast<long long>(nested->stats().group_commits),
                static_cast<long long>(nested->stats().group_resets));
    ok &= nested_result.all_committed;
    ok &= nested->stats().group_commits == projects;

    // Flat CEP on the same member transactions (the scopes dissolved; the
    // member partial order kept; project chaining dropped, since flat CEP
    // has no group transactions to order).
    SimResult flat_result =
        sim.Run(nw.workload, MakeControllerFactory(ProtocolKind::kCep));
    std::printf("%9d %8d %-11s | %9lld %10lld %8lld %7s %7s\n", projects,
                params.members_per_project, "flat CEP",
                static_cast<long long>(flat_result.makespan),
                static_cast<long long>(flat_result.total_blocked),
                static_cast<long long>(flat_result.total_aborts), "-", "-");
    ok &= flat_result.all_committed;
    std::printf("\n");
  }
  std::printf("(Nested-CEP pays group chaining and relative commits for "
              "scope isolation —\nsubtransaction effects stay invisible "
              "outside their project until the project commits.)\n");
  return ok;
}

}  // namespace
}  // namespace nonserial

int main(int argc, char** argv) {
  return nonserial::BenchMain(
      argc, argv, "nested_concurrency",
      [](const nonserial::BenchOptions&, nonserial::BenchReport*) {
        bool a = nonserial::PartA();
        bool b = nonserial::PartB();
        bool c = nonserial::PartC();
        std::printf("\nRESULT: %s — sibling subtransactions run in parallel; "
                    "the critical path follows tree depth, not size;\nthe "
                    "hierarchical protocol commits every project with scope "
                    "isolation intact.\n",
                    (a && b && c) ? "reproduced" : "NOT REPRODUCED");
        return a && b && c;
      });
}
