#ifndef NONSERIAL_MODEL_TRANSACTION_H_
#define NONSERIAL_MODEL_TRANSACTION_H_

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "model/entity.h"
#include "model/state.h"
#include "predicate/predicate.h"

namespace nonserial {

/// A small deterministic expression over entity values; leaf transactions
/// compute their written values with these. The model only requires that a
/// transaction be a deterministic mapping D -> D^U; arithmetic expressions
/// realize that while keeping effects inspectable and replayable.
class Expr {
 public:
  enum class Kind : uint8_t { kConst, kVar, kAdd, kSub, kMul, kMin, kMax };

  static Expr Const(Value v);
  static Expr Var(EntityId e);
  static Expr Add(Expr a, Expr b);
  static Expr Sub(Expr a, Expr b);
  static Expr Mul(Expr a, Expr b);
  static Expr Min(Expr a, Expr b);
  static Expr Max(Expr a, Expr b);

  Value Eval(const ValueVector& values) const;

  /// Entities read by this expression, added to `out`.
  void CollectReads(std::set<EntityId>* out) const;

  std::string ToString(const EntityCatalog& catalog) const;

 private:
  static Expr MakeBinary(Kind kind, Expr a, Expr b);

  Kind kind_ = Kind::kConst;
  Value constant_ = 0;
  EntityId entity_ = kInvalidEntity;
  std::shared_ptr<const Expr> lhs_;
  std::shared_ptr<const Expr> rhs_;
};

/// One write performed by a leaf transaction: entity := expr(reads).
struct WriteEffect {
  EntityId entity = kInvalidEntity;
  Expr expr;
};

/// The body of a leaf (basic-operation-level) transaction: a set of declared
/// reads plus write effects. Applying the program to an input version state
/// yields the produced unique state t(S): the input with writes applied.
class LeafProgram {
 public:
  LeafProgram() = default;

  /// Declares a read of entity `e` (with no computational use; models pure
  /// reads such as reference lookups).
  void AddRead(EntityId e) { declared_reads_.insert(e); }

  /// Adds a write effect. Entities read by `expr` count as reads.
  void AddWrite(EntityId e, Expr expr);

  /// All entities read (declared plus expression operands).
  const std::set<EntityId>& reads() const { return declared_reads_; }

  /// Entities written — the update set U_t of this leaf.
  std::set<EntityId> WriteSet() const;

  const std::vector<WriteEffect>& writes() const { return writes_; }

  /// t(S): input version state with all write effects applied. Effects are
  /// evaluated against the *input* (simultaneous-assignment semantics), so
  /// swap-style programs behave as specified.
  UniqueState Apply(const ValueVector& input) const;

 private:
  std::set<EntityId> declared_reads_;
  std::vector<WriteEffect> writes_;
};

/// A transaction specification (I_t, O_t): the precondition the input
/// version state must satisfy and the postcondition the transaction's final
/// state must satisfy (paper, Section 3.1). Defaults to (true, true).
struct Specification {
  Predicate input;   ///< I_t
  Predicate output;  ///< O_t
};

/// One node of a nested transaction tree. A node is either a leaf carrying a
/// LeafProgram, or an internal node carrying an implementation (T, P): child
/// node ids plus a partial order over them. Internal nodes designate a final
/// child t_f — a read-only leaf whose input state is "the result" of the
/// node, against which O_t is checked (paper, Section 3.1: the final state
/// of an execution is X(t_f)).
struct TransactionNode {
  std::string name;     ///< Dotted path name, e.g. "t.1.0".
  Specification spec;
  bool is_leaf = true;
  LeafProgram program;  ///< Leaf nodes only.

  std::vector<int> children;  ///< Internal nodes: node ids in the tree.
  /// Partial order P over children, as (i, j) pairs of *positions* in
  /// `children`: child i must precede child j.
  std::vector<std::pair<int, int>> partial_order;
  /// Position (in `children`) of the final pseudo-transaction t_f, or -1.
  int final_child = -1;
};

/// An owning nested transaction tree (Figure 1 of the paper). Node 0 need
/// not be the root; `root()` identifies it.
class TransactionTree {
 public:
  TransactionTree() = default;

  /// Adds a leaf node; returns its node id.
  int AddLeaf(std::string name, LeafProgram program,
              Specification spec = Specification());

  /// Adds an internal node over previously added children. `partial_order`
  /// uses positions into `children`. `final_child` is a position into
  /// `children` or -1 when the node has no designated t_f.
  int AddInternal(std::string name, std::vector<int> children,
                  std::vector<std::pair<int, int>> partial_order,
                  Specification spec = Specification(), int final_child = -1);

  void SetRoot(int node_id) { root_ = node_id; }
  int root() const { return root_; }

  const TransactionNode& node(int id) const;
  TransactionNode& mutable_node(int id);
  int size() const { return static_cast<int>(nodes_.size()); }
  /// Reserves room for `n` nodes (a caller that knows the tree's size
  /// avoids the reallocations of growing it).
  void Reserve(int n) { nodes_.reserve(n); }

  /// The input set N_t of a node: entities appearing in I_t.
  std::set<EntityId> InputSet(int id) const;

  /// The update set U_t: written entities (union over the subtree).
  std::set<EntityId> UpdateSet(int id) const;

  /// The read set: declared reads (union over the subtree).
  std::set<EntityId> ReadSet(int id) const;

  /// The object set of a node per the paper: union of the objects of the
  /// children's output predicates.
  std::vector<std::set<EntityId>> ObjectSet(int id) const;

  /// Validates tree structure: children exist, every non-root node has one
  /// parent, the partial order is acyclic, position indices are in range.
  Status Validate() const;

 private:
  std::vector<TransactionNode> nodes_;
  int root_ = -1;
};

}  // namespace nonserial

#endif  // NONSERIAL_MODEL_TRANSACTION_H_
