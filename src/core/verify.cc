#include "core/verify.h"

#include <utility>
#include <vector>

#include "common/strings.h"

namespace nonserial {

Status VerifyCepHistory(const SimWorkload& workload,
                        const CorrectExecutionProtocol& cep,
                        const VersionStore& store, const Predicate& constraint,
                        EvalCache* cache) {
  return VerifyCepHistory(workload, cep.records(),
                          store.LatestCommittedSnapshot(), constraint, cache);
}

Status VerifyCepHistory(
    const SimWorkload& workload,
    const std::vector<CorrectExecutionProtocol::TxRecord>& records,
    const ValueVector& final_committed_snapshot, const Predicate& constraint,
    EvalCache* cache) {
  // Committed transactions, in registration order; map tx id -> child
  // position within the root (-1: not committed).
  std::vector<int> committed;
  std::vector<int> positions(records.size(), -1);
  for (size_t tx = 0; tx < records.size(); ++tx) {
    if (records[tx].committed) {
      positions[tx] = static_cast<int>(committed.size());
      committed.push_back(static_cast<int>(tx));
    }
  }
  auto position_of = [&positions](int tx) {
    return tx >= 0 && tx < static_cast<int>(positions.size()) ? positions[tx]
                                                               : -1;
  };

  // Replay each committed transaction's writes as constant effects (the
  // transaction's mapping applied to X(t) reproduces exactly the values it
  // wrote).
  TransactionTree tree;
  tree.Reserve(static_cast<int>(committed.size()) + 2);  // + t_f and root.
  std::vector<int> child_nodes;
  child_nodes.reserve(committed.size() + 1);
  for (int tx : committed) {
    const CorrectExecutionProtocol::TxRecord& record = records[tx];
    LeafProgram program;
    for (const auto& [entity, value] : record.writes) {
      program.AddWrite(entity, Expr::Const(value));
    }
    Specification spec;
    spec.input = workload.txs[tx].input;
    spec.output = workload.txs[tx].output;
    child_nodes.push_back(
        tree.AddLeaf(record.name, std::move(program), std::move(spec)));
  }

  // t_f: reads the final database; its input condition is the database
  // consistency constraint (the root's output condition, per Lemma 3's
  // standard-model encoding).
  LeafProgram tf_program;
  int num_entities = static_cast<int>(final_committed_snapshot.size());
  for (EntityId e = 0; e < num_entities; ++e) tf_program.AddRead(e);
  Specification tf_spec;
  tf_spec.input = constraint;
  int tf_node = tree.AddLeaf("t_f", std::move(tf_program), tf_spec);
  child_nodes.push_back(tf_node);
  int tf_position = static_cast<int>(child_nodes.size()) - 1;

  // Partial order P: workload precedence edges restricted to committed
  // transactions, plus everyone-before-t_f.
  std::vector<std::pair<int, int>> partial_order;
  for (int tx : committed) {
    for (int pred : workload.txs[tx].predecessors) {
      int pred_position = position_of(pred);
      if (pred_position >= 0) {
        partial_order.push_back({pred_position, position_of(tx)});
      }
    }
    partial_order.push_back({position_of(tx), tf_position});
  }

  Specification root_spec;
  root_spec.output = constraint;
  int root = tree.AddInternal("root", child_nodes, partial_order, root_spec,
                              /*final_child=*/tf_position);
  tree.SetRoot(root);

  NONSERIAL_RETURN_IF_ERROR(tree.Validate());

  // The execution (R, X): X from the protocol's recorded input states and
  // the final snapshot, R from the recorded version authors.
  TreeExecution exec;
  exec.root_input = workload.initial;
  NodeExecution ne;
  ne.inputs.assign(child_nodes.size(), ValueVector());
  for (int tx : committed) {
    const CorrectExecutionProtocol::TxRecord& record = records[tx];
    ne.inputs[position_of(tx)] = record.input_state;
    for (int feeder : record.feeder_txs) {
      int feeder_position = position_of(feeder);
      if (feeder_position < 0) {
        return Status::Internal(StrCat(
            "committed transaction '", record.name,
            "' was assigned a version authored by uncommitted transaction ",
            feeder, " — commit rule 2 violated"));
      }
      ne.reads_from.push_back({feeder_position, position_of(tx)});
    }
  }
  // t_f observes the final committed database; it may read from anyone.
  ne.inputs[tf_position] = final_committed_snapshot;
  for (int tx : committed) {
    ne.reads_from.push_back({position_of(tx), tf_position});
  }
  exec.node_executions[root] = std::move(ne);

  return CheckCorrectExecution(tree, exec, cache);
}

}  // namespace nonserial
