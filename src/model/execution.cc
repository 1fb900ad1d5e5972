#include "model/execution.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>

#include "common/logging.h"
#include "common/strings.h"
#include "graph/digraph.h"

namespace nonserial {
namespace {

// Builds parent/position maps for the tree.
void BuildParentMaps(const TransactionTree& tree, std::vector<int>* parent,
                     std::vector<int>* position) {
  parent->assign(tree.size(), -1);
  position->assign(tree.size(), -1);
  for (int id = 0; id < tree.size(); ++id) {
    const TransactionNode& node = tree.node(id);
    for (size_t pos = 0; pos < node.children.size(); ++pos) {
      (*parent)[node.children[pos]] = id;
      (*position)[node.children[pos]] = static_cast<int>(pos);
    }
  }
}

// (t_i, t_j) ∈ P+  =>  (t_j, t_i) ∉ R+, for the n children of node `id`.
// Sweeps the sources in blocks of 64, one bit per source: pa[v] holds the
// block sources that reach v by a P+ path, rd[c] the block sources that R's
// component c reaches by a non-empty R path, plus c's own members, so a
// violation is a bit of pa[j] & rd[comp[j]]. O((n + m) * n / 64) time and
// O(n + m) words; the first violation reported is the row-major first
// (i, j), i.e. the smallest i, then the smallest j. P must be acyclic
// (TransactionTree::Validate).
Status CheckOrderNotInvalidated(
    int id, int n, const std::vector<std::pair<int, int>>& p_edges,
    const std::vector<std::pair<int, int>>& r_edges) {
  CompactDigraph p(n, p_edges);
  CompactDigraph r(n, r_edges);
  std::optional<std::vector<int>> p_topo = p.TopologicalOrder();
  NONSERIAL_CHECK(p_topo.has_value()) << "partial order of node " << id
                                      << " is cyclic";
  // R's condensation. Tarjan ids are reverse-topological, so ascending id
  // order visits a component's successors first.
  int num_comps = 0;
  std::vector<int> comp = r.StronglyConnectedComponents(&num_comps);
  std::vector<int> comp_start(num_comps + 1, 0);
  for (int v = 0; v < n; ++v) ++comp_start[comp[v] + 1];
  for (int c = 0; c < num_comps; ++c) comp_start[c + 1] += comp_start[c];
  std::vector<int> members(n);
  std::vector<int> fill(comp_start.begin(), comp_start.end() - 1);
  for (int v = 0; v < n; ++v) members[fill[comp[v]]++] = v;

  std::vector<uint64_t> pa(n);
  std::vector<uint64_t> in_block(num_comps);
  std::vector<uint64_t> rd(num_comps);
  for (int base = 0; base < n; base += 64) {
    int end = std::min(n, base + 64);
    auto bit = [base, end](int v) -> uint64_t {
      return v >= base && v < end ? uint64_t{1} << (v - base) : 0;
    };
    std::fill(pa.begin(), pa.end(), 0);
    for (int u : *p_topo) {
      uint64_t from_u = pa[u] | bit(u);
      if (from_u == 0) continue;
      for (int w : p.OutEdges(u)) pa[w] |= from_u;
    }
    std::fill(in_block.begin(), in_block.end(), 0);
    for (int v = base; v < end; ++v) in_block[comp[v]] |= bit(v);
    // A component reaches its own members: those of a cycle by R paths;
    // a lone v's own bit is harmless, as P is acyclic and pa[v] lacks it.
    for (int c = 0; c < num_comps; ++c) {
      uint64_t reach = in_block[c];
      for (int k = comp_start[c]; k < comp_start[c + 1]; ++k) {
        for (int w : r.OutEdges(members[k])) {
          if (comp[w] != c) reach |= rd[comp[w]];
        }
      }
      rd[c] = reach;
    }
    int first_i = -1;
    int first_j = -1;
    for (int j = 0; j < n; ++j) {
      uint64_t violations = pa[j] & rd[comp[j]];
      if (violations == 0) continue;
      int i = base + std::countr_zero(violations);
      if (first_i < 0 || i < first_i) {
        first_i = i;
        first_j = j;
      }
    }
    if (first_i >= 0) {
      return Status::FailedPrecondition(StrCat(
          "partial order invalidation at node ", id, ": children ", first_i,
          " -> ", first_j, " ordered by P but R+ orders ", first_j, " -> ",
          first_i));
    }
  }
  return Status::OK();
}

}  // namespace

ExecutionEvaluator::ExecutionEvaluator(const TransactionTree& tree,
                                       const TreeExecution& exec)
    : tree_(tree), exec_(exec) {
  BuildParentMaps(tree_, &parent_, &position_);
}

StatusOr<ValueVector> ExecutionEvaluator::InputOf(int node_id) {
  if (node_id == tree_.root()) return exec_.root_input;
  int parent = parent_[node_id];
  if (parent < 0) {
    return Status::InvalidArgument(
        StrCat("node ", node_id, " is not attached to the tree"));
  }
  auto it = exec_.node_executions.find(parent);
  if (it == exec_.node_executions.end()) {
    return Status::FailedPrecondition(
        StrCat("no execution recorded for internal node ", parent));
  }
  int pos = position_[node_id];
  if (pos < 0 || pos >= static_cast<int>(it->second.inputs.size())) {
    return Status::FailedPrecondition(
        StrCat("execution of node ", parent, " lacks input for child ", pos));
  }
  return it->second.inputs[pos];
}

StatusOr<UniqueState> ExecutionEvaluator::OutputOf(int node_id) {
  auto memo = memo_.find(node_id);
  if (memo != memo_.end()) return memo->second;

  const TransactionNode& node = tree_.node(node_id);
  NONSERIAL_ASSIGN_OR_RETURN(ValueVector input, InputOf(node_id));
  // A leaf's output is one cheap program application: recomputed rather
  // than kept, so checking n leaves holds no n output states at once.
  if (node.is_leaf) return node.program.Apply(input);
  if (node.final_child < 0) {
    return Status::FailedPrecondition(
        StrCat("internal node ", node_id, " ('", node.name,
               "') has no designated final child; its result is undefined"));
  }
  auto it = exec_.node_executions.find(node_id);
  if (it == exec_.node_executions.end()) {
    return Status::FailedPrecondition(
        StrCat("no execution recorded for internal node ", node_id));
  }
  if (node.final_child >= static_cast<int>(it->second.inputs.size())) {
    return Status::FailedPrecondition(
        StrCat("execution of node ", node_id, " lacks final-child input"));
  }
  // X(t_f): the version state the final pseudo-transaction observes. A
  // leaf t_f applies its (normally empty) program for uniformity; an
  // internal final child contributes its own recursively defined result.
  int final_id = node.children[node.final_child];
  UniqueState output;
  const TransactionNode& final_node = tree_.node(final_id);
  if (final_node.is_leaf) {
    output = final_node.program.Apply(it->second.inputs[node.final_child]);
  } else {
    NONSERIAL_ASSIGN_OR_RETURN(output, OutputOf(final_id));
  }
  memo_.emplace(node_id, output);
  return output;
}

Status ValidateExecutionStructure(const TransactionTree& tree,
                                  const TreeExecution& exec) {
  NONSERIAL_RETURN_IF_ERROR(tree.Validate());
  for (int id = 0; id < tree.size(); ++id) {
    const TransactionNode& node = tree.node(id);
    if (node.is_leaf) continue;
    auto it = exec.node_executions.find(id);
    if (it == exec.node_executions.end()) {
      return Status::FailedPrecondition(
          StrCat("internal node ", id, " ('", node.name,
                 "') has no recorded execution"));
    }
    const NodeExecution& ne = it->second;
    int n = static_cast<int>(node.children.size());
    if (static_cast<int>(ne.inputs.size()) != n) {
      return Status::InvalidArgument(
          StrCat("execution of node ", id, " has ", ne.inputs.size(),
                 " inputs for ", n, " children"));
    }
    for (auto [a, b] : ne.reads_from) {
      if (a < 0 || a >= n || b < 0 || b >= n) {
        return Status::InvalidArgument(
            StrCat("execution of node ", id, " has R edge out of range"));
      }
    }
    NONSERIAL_RETURN_IF_ERROR(
        CheckOrderNotInvalidated(id, n, node.partial_order, ne.reads_from));
  }
  return Status::OK();
}

Status CheckParentBased(const TransactionTree& tree,
                        const TreeExecution& exec) {
  ExecutionEvaluator eval(tree, exec);
  for (int id = 0; id < tree.size(); ++id) {
    const TransactionNode& node = tree.node(id);
    if (node.is_leaf) continue;
    auto it = exec.node_executions.find(id);
    if (it == exec.node_executions.end()) {
      return Status::FailedPrecondition(
          StrCat("internal node ", id, " has no recorded execution"));
    }
    const NodeExecution& ne = it->second;
    NONSERIAL_ASSIGN_OR_RETURN(ValueVector parent_input, eval.InputOf(id));
    int n = static_cast<int>(node.children.size());
    // The siblings each child reads from.
    CompactDigraph feeders(n, ne.reads_from, /*reverse=*/true);
    // Each feeder's output is computed once per child and clears every
    // entity it justifies; an entity left over is reported (the smallest).
    std::vector<EntityId> unjustified;
    for (int i = 0; i < n; ++i) {
      const ValueVector& x_i = ne.inputs[i];
      if (x_i.size() != parent_input.size()) {
        return Status::InvalidArgument(
            StrCat("input of child ", i, " of node ", id, " has wrong size"));
      }
      unjustified.clear();
      for (size_t e = 0; e < x_i.size(); ++e) {
        if (x_i[e] != parent_input[e]) {
          unjustified.push_back(static_cast<EntityId>(e));
        }
      }
      for (int j : feeders.OutEdges(i)) {
        if (unjustified.empty()) break;
        NONSERIAL_ASSIGN_OR_RETURN(UniqueState out_j,
                                   eval.OutputOf(node.children[j]));
        std::erase_if(unjustified,
                      [&](EntityId e) { return out_j[e] == x_i[e]; });
      }
      if (!unjustified.empty()) {
        EntityId e = unjustified.front();
        return Status::FailedPrecondition(StrCat(
            "child ", i, " of node ", id, " reads entity ", e, " = ", x_i[e],
            " which comes neither from the parent input nor from any "
            "sibling it reads from"));
      }
    }
  }
  return Status::OK();
}

Status CheckCorrectness(const TransactionTree& tree, const TreeExecution& exec,
                        EvalCache* cache) {
  ExecutionEvaluator eval(tree, exec);
  // Memoized evaluation path: a predicate evaluates through its
  // CachedPredicate companion, so identical (conjunct, values) pairs —
  // common when a history is re-verified or transactions share specs — are
  // hash probes. The plain path is kept for cache == nullptr.
  auto holds = [cache](const Predicate& p, const ValueVector& v) {
    if (cache == nullptr) return p.Eval(v);
    return CachedPredicate(p, cache).Eval(p, v);
  };
  for (int id = 0; id < tree.size(); ++id) {
    const TransactionNode& node = tree.node(id);
    // Input condition: I_t(X(t)).
    NONSERIAL_ASSIGN_OR_RETURN(ValueVector input, eval.InputOf(id));
    if (!holds(node.spec.input, input)) {
      return Status::FailedPrecondition(
          StrCat("input predicate of node ", id, " ('", node.name,
                 "') does not hold on its assigned version state"));
    }
    // Output condition: O_t(X(t_f)) for internal nodes; for leaves, O_t is
    // checked on the produced unique state t(X(t)).
    if (node.spec.output.IsTrue()) continue;
    NONSERIAL_ASSIGN_OR_RETURN(UniqueState output, eval.OutputOf(id));
    if (!holds(node.spec.output, output)) {
      return Status::FailedPrecondition(
          StrCat("output predicate of node ", id, " ('", node.name,
                 "') does not hold on its final state"));
    }
  }
  return Status::OK();
}

Status CheckCorrectExecution(const TransactionTree& tree,
                             const TreeExecution& exec, EvalCache* cache) {
  NONSERIAL_RETURN_IF_ERROR(ValidateExecutionStructure(tree, exec));
  NONSERIAL_RETURN_IF_ERROR(CheckParentBased(tree, exec));
  return CheckCorrectness(tree, exec, cache);
}

namespace {

// Recursively fills `exec` with a serial execution of `node_id` starting
// from `input`; returns the node's output state.
StatusOr<UniqueState> SerializeNode(
    const TransactionTree& tree, int node_id, const ValueVector& input,
    const std::map<int, std::vector<int>>* orders, TreeExecution* exec) {
  const TransactionNode& node = tree.node(node_id);
  if (node.is_leaf) return node.program.Apply(input);

  int n = static_cast<int>(node.children.size());
  std::vector<int> order;
  if (orders != nullptr) {
    auto it = orders->find(node_id);
    if (it != orders->end()) order = it->second;
  }
  if (order.empty()) {
    // Default: a topological order of P (positions ascending as tiebreak).
    std::optional<std::vector<int>> topo =
        CompactDigraph(n, node.partial_order).TopologicalOrder();
    if (!topo.has_value()) {
      return Status::InvalidArgument(
          StrCat("node ", node_id, " has cyclic partial order"));
    }
    order = *topo;
  } else {
    // Verify the requested order respects P.
    std::vector<int> rank(n, 0);
    for (int i = 0; i < n; ++i) rank[order[i]] = i;
    for (auto [a, b] : node.partial_order) {
      if (rank[a] > rank[b]) {
        return Status::InvalidArgument(
            StrCat("requested order for node ", node_id,
                   " violates its partial order"));
      }
    }
  }
  if (static_cast<int>(order.size()) != n) {
    return Status::InvalidArgument(
        StrCat("order for node ", node_id, " must cover all children"));
  }

  NodeExecution ne;
  ne.inputs.assign(n, ValueVector());
  std::vector<UniqueState> child_outputs(n);
  ValueVector current = input;
  int prev = -1;
  for (int pos : order) {
    ne.inputs[pos] = current;
    if (prev >= 0) ne.reads_from.push_back({prev, pos});
    NONSERIAL_ASSIGN_OR_RETURN(
        UniqueState out,
        SerializeNode(tree, node.children[pos], current, orders, exec));
    child_outputs[pos] = out;
    current = std::move(out);
    prev = pos;
  }
  exec->node_executions[node_id] = std::move(ne);
  // The node's result: X(t_f)'s product if a final child is designated,
  // else the last child's output.
  if (node.final_child >= 0) return child_outputs[node.final_child];
  return current;
}

}  // namespace

StatusOr<TreeExecution> MakeSerialExecution(
    const TransactionTree& tree, ValueVector root_input,
    const std::map<int, std::vector<int>>* orders) {
  NONSERIAL_RETURN_IF_ERROR(tree.Validate());
  TreeExecution exec;
  exec.root_input = std::move(root_input);
  NONSERIAL_ASSIGN_OR_RETURN(
      UniqueState out,
      SerializeNode(tree, tree.root(), exec.root_input, orders, &exec));
  (void)out;
  return exec;
}

}  // namespace nonserial
