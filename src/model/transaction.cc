#include "model/transaction.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"
#include "graph/digraph.h"

namespace nonserial {

Expr Expr::Const(Value v) {
  Expr e;
  e.kind_ = Kind::kConst;
  e.constant_ = v;
  return e;
}

Expr Expr::Var(EntityId entity) {
  Expr e;
  e.kind_ = Kind::kVar;
  e.entity_ = entity;
  return e;
}

Expr Expr::MakeBinary(Kind kind, Expr a, Expr b) {
  Expr e;
  e.kind_ = kind;
  e.lhs_ = std::make_shared<const Expr>(std::move(a));
  e.rhs_ = std::make_shared<const Expr>(std::move(b));
  return e;
}

Expr Expr::Add(Expr a, Expr b) {
  return MakeBinary(Kind::kAdd, std::move(a), std::move(b));
}
Expr Expr::Sub(Expr a, Expr b) {
  return MakeBinary(Kind::kSub, std::move(a), std::move(b));
}
Expr Expr::Mul(Expr a, Expr b) {
  return MakeBinary(Kind::kMul, std::move(a), std::move(b));
}
Expr Expr::Min(Expr a, Expr b) {
  return MakeBinary(Kind::kMin, std::move(a), std::move(b));
}
Expr Expr::Max(Expr a, Expr b) {
  return MakeBinary(Kind::kMax, std::move(a), std::move(b));
}

Value Expr::Eval(const ValueVector& values) const {
  switch (kind_) {
    case Kind::kConst:
      return constant_;
    case Kind::kVar:
      return values[entity_];
    case Kind::kAdd:
      return lhs_->Eval(values) + rhs_->Eval(values);
    case Kind::kSub:
      return lhs_->Eval(values) - rhs_->Eval(values);
    case Kind::kMul:
      return lhs_->Eval(values) * rhs_->Eval(values);
    case Kind::kMin:
      return std::min(lhs_->Eval(values), rhs_->Eval(values));
    case Kind::kMax:
      return std::max(lhs_->Eval(values), rhs_->Eval(values));
  }
  return 0;
}

void Expr::CollectReads(std::set<EntityId>* out) const {
  switch (kind_) {
    case Kind::kConst:
      return;
    case Kind::kVar:
      out->insert(entity_);
      return;
    default:
      lhs_->CollectReads(out);
      rhs_->CollectReads(out);
  }
}

std::string Expr::ToString(const EntityCatalog& catalog) const {
  switch (kind_) {
    case Kind::kConst:
      return std::to_string(constant_);
    case Kind::kVar:
      return catalog.Name(entity_);
    case Kind::kAdd:
      return StrCat("(", lhs_->ToString(catalog), " + ",
                    rhs_->ToString(catalog), ")");
    case Kind::kSub:
      return StrCat("(", lhs_->ToString(catalog), " - ",
                    rhs_->ToString(catalog), ")");
    case Kind::kMul:
      return StrCat("(", lhs_->ToString(catalog), " * ",
                    rhs_->ToString(catalog), ")");
    case Kind::kMin:
      return StrCat("min(", lhs_->ToString(catalog), ", ",
                    rhs_->ToString(catalog), ")");
    case Kind::kMax:
      return StrCat("max(", lhs_->ToString(catalog), ", ",
                    rhs_->ToString(catalog), ")");
  }
  return "?";
}

void LeafProgram::AddWrite(EntityId e, Expr expr) {
  expr.CollectReads(&declared_reads_);
  writes_.push_back(WriteEffect{e, std::move(expr)});
}

std::set<EntityId> LeafProgram::WriteSet() const {
  std::set<EntityId> out;
  for (const WriteEffect& w : writes_) out.insert(w.entity);
  return out;
}

UniqueState LeafProgram::Apply(const ValueVector& input) const {
  UniqueState out = input;
  // Simultaneous assignment: all expressions read the input state.
  std::vector<Value> produced(writes_.size());
  for (size_t i = 0; i < writes_.size(); ++i) {
    produced[i] = writes_[i].expr.Eval(input);
  }
  for (size_t i = 0; i < writes_.size(); ++i) {
    out[writes_[i].entity] = produced[i];
  }
  return out;
}

int TransactionTree::AddLeaf(std::string name, LeafProgram program,
                             Specification spec) {
  TransactionNode node;
  node.name = std::move(name);
  node.spec = std::move(spec);
  node.is_leaf = true;
  node.program = std::move(program);
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

int TransactionTree::AddInternal(std::string name, std::vector<int> children,
                                 std::vector<std::pair<int, int>> partial_order,
                                 Specification spec, int final_child) {
  TransactionNode node;
  node.name = std::move(name);
  node.spec = std::move(spec);
  node.is_leaf = false;
  node.children = std::move(children);
  node.partial_order = std::move(partial_order);
  node.final_child = final_child;
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

const TransactionNode& TransactionTree::node(int id) const {
  NONSERIAL_CHECK_GE(id, 0);
  NONSERIAL_CHECK_LT(id, size());
  return nodes_[id];
}

TransactionNode& TransactionTree::mutable_node(int id) {
  NONSERIAL_CHECK_GE(id, 0);
  NONSERIAL_CHECK_LT(id, size());
  return nodes_[id];
}

std::set<EntityId> TransactionTree::InputSet(int id) const {
  return node(id).spec.input.Entities();
}

std::set<EntityId> TransactionTree::UpdateSet(int id) const {
  const TransactionNode& n = node(id);
  std::set<EntityId> out;
  if (n.is_leaf) return n.program.WriteSet();
  for (int child : n.children) {
    std::set<EntityId> sub = UpdateSet(child);
    out.insert(sub.begin(), sub.end());
  }
  return out;
}

std::set<EntityId> TransactionTree::ReadSet(int id) const {
  const TransactionNode& n = node(id);
  std::set<EntityId> out;
  if (n.is_leaf) return n.program.reads();
  for (int child : n.children) {
    std::set<EntityId> sub = ReadSet(child);
    out.insert(sub.begin(), sub.end());
  }
  return out;
}

std::vector<std::set<EntityId>> TransactionTree::ObjectSet(int id) const {
  const TransactionNode& n = node(id);
  std::vector<std::set<EntityId>> out;
  for (int child : n.children) {
    for (const std::set<EntityId>& obj : node(child).spec.output.Objects()) {
      if (std::find(out.begin(), out.end(), obj) == out.end()) {
        out.push_back(obj);
      }
    }
  }
  return out;
}

Status TransactionTree::Validate() const {
  if (root_ < 0 || root_ >= size()) {
    return Status::FailedPrecondition("tree has no root");
  }
  std::vector<int> parent_count(size(), 0);
  for (int id = 0; id < size(); ++id) {
    const TransactionNode& n = nodes_[id];
    if (n.is_leaf) continue;
    int num_children = static_cast<int>(n.children.size());
    for (int child : n.children) {
      if (child < 0 || child >= size()) {
        return Status::InvalidArgument(
            StrCat("node ", id, " has out-of-range child ", child));
      }
      if (child == id) {
        return Status::InvalidArgument(StrCat("node ", id, " is own child"));
      }
      ++parent_count[child];
    }
    for (auto [a, b] : n.partial_order) {
      if (a < 0 || a >= num_children || b < 0 || b >= num_children) {
        return Status::InvalidArgument(
            StrCat("node ", id, " partial order references position out of "
                   "range"));
      }
    }
    if (!CompactDigraph(num_children, n.partial_order).TopologicalOrder()) {
      return Status::InvalidArgument(
          StrCat("node ", id, " partial order is cyclic"));
    }
    if (n.final_child != -1 &&
        (n.final_child < 0 || n.final_child >= num_children)) {
      return Status::InvalidArgument(
          StrCat("node ", id, " final_child out of range"));
    }
  }
  for (int id = 0; id < size(); ++id) {
    if (id == root_) {
      if (parent_count[id] != 0) {
        return Status::InvalidArgument("root has a parent");
      }
    } else if (parent_count[id] != 1) {
      return Status::InvalidArgument(
          StrCat("node ", id, " has ", parent_count[id],
                 " parents; each subtransaction needs exactly one"));
    }
  }
  return Status::OK();
}

}  // namespace nonserial
