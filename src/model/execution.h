#ifndef NONSERIAL_MODEL_EXECUTION_H_
#define NONSERIAL_MODEL_EXECUTION_H_

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/status.h"
#include "model/state.h"
#include "model/transaction.h"
#include "predicate/eval_cache.h"

namespace nonserial {

/// An execution (R, X) of one internal node's implementation (T, P):
/// `reads_from` is the relation R over children (edges (j, i) meaning child
/// at position i may draw values from the output of child at position j),
/// and `inputs` is X — one input version state per child position.
struct NodeExecution {
  std::vector<std::pair<int, int>> reads_from;
  std::vector<ValueVector> inputs;
};

/// A full execution of a transaction tree: the root's input state X(t) plus
/// one NodeExecution per internal node (keyed by node id).
struct TreeExecution {
  ValueVector root_input;
  std::map<int, NodeExecution> node_executions;
};

/// Evaluates node outputs under an execution, with memoization.
///
/// The output of a leaf is its program applied to its assigned input state;
/// the output of an internal node is X(t_f) — the input state assigned to
/// its designated final child (the paper's "final state of an execution").
class ExecutionEvaluator {
 public:
  ExecutionEvaluator(const TransactionTree& tree, const TreeExecution& exec);

  /// The input version state assigned to `node_id` (from its parent's
  /// NodeExecution, or root_input for the root).
  StatusOr<ValueVector> InputOf(int node_id);

  /// The produced unique state of `node_id` (see class comment).
  StatusOr<UniqueState> OutputOf(int node_id);

 private:
  const TransactionTree& tree_;
  const TreeExecution& exec_;
  std::vector<int> parent_;          // node id -> parent node id (-1 = root).
  std::vector<int> position_;        // node id -> position within parent.
  std::map<int, UniqueState> memo_;  // Internal nodes only.
};

/// Checks the definition of an execution (paper, Section 3.1): for every
/// internal node, (t_i, t_j) ∈ P+ implies (t_j, t_i) ∉ R+, and shapes agree
/// (one input per child, edges within range).
Status ValidateExecutionStructure(const TransactionTree& tree,
                                  const TreeExecution& exec);

/// Checks the parent-based property: every child's input value for every
/// entity comes either from the parent's input state or from the output of
/// a sibling t_j with (t_j, t_i) ∈ R.
Status CheckParentBased(const TransactionTree& tree,
                        const TreeExecution& exec);

/// Checks correctness: every node's input predicate I_t holds on its
/// assigned input state, and every internal node's output predicate O_t
/// holds on X(t_f) of its execution. Nodes without a designated final child
/// must have O_t = true.
///
/// `cache`, when non-null, memoizes the conjunct evaluations — re-verifying
/// the same history (e.g. across crash-recovery replay cycles, or a
/// workload whose transactions share specification predicates) then mostly
/// probes the cache instead of re-walking atoms.
Status CheckCorrectness(const TransactionTree& tree, const TreeExecution& exec,
                        EvalCache* cache = nullptr);

/// All three checks; OK iff the execution is a correct, parent-based
/// execution in the sense of the paper. `cache` as in CheckCorrectness.
Status CheckCorrectExecution(const TransactionTree& tree,
                             const TreeExecution& exec,
                             EvalCache* cache = nullptr);

/// Builds the canonical serial execution: every internal node's children
/// run one after another in a given (or default position) order that must be
/// consistent with P, each child reading the full output of its predecessor
/// (R is the chain). Useful as ground truth in tests and benchmarks.
///
/// `orders`, when provided, maps internal node id -> permutation of child
/// positions.
StatusOr<TreeExecution> MakeSerialExecution(
    const TransactionTree& tree, ValueVector root_input,
    const std::map<int, std::vector<int>>* orders = nullptr);

}  // namespace nonserial

#endif  // NONSERIAL_MODEL_EXECUTION_H_
