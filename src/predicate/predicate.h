#ifndef NONSERIAL_PREDICATE_PREDICATE_H_
#define NONSERIAL_PREDICATE_PREDICATE_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "predicate/value.h"

namespace nonserial {

/// One side of an atom: either a reference to an entity or a constant.
struct Term {
  bool is_entity = false;
  EntityId entity = kInvalidEntity;
  Value constant = 0;

  static Term Entity(EntityId e) {
    Term t;
    t.is_entity = true;
    t.entity = e;
    return t;
  }
  static Term Constant(Value v) {
    Term t;
    t.constant = v;
    return t;
  }

  Value Resolve(const ValueVector& values) const {
    return is_entity ? values[entity] : constant;
  }

  bool operator==(const Term& other) const;
};

/// An atom `x θ y` where x, y are entities or constants and θ is one of the
/// six comparison operators (paper, Section 3.1).
struct Atom {
  Term lhs;
  CompareOp op = CompareOp::kEq;
  Term rhs;

  bool Eval(const ValueVector& values) const {
    return EvalCompare(lhs.Resolve(values), op, rhs.Resolve(values));
  }

  /// Adds the entities mentioned by this atom to `out`.
  void CollectEntities(std::set<EntityId>* out) const;

  bool operator==(const Atom& other) const;
};

/// A disjunctive clause: an OR of atoms.
class Clause {
 public:
  Clause() = default;
  explicit Clause(std::vector<Atom> atoms) : atoms_(std::move(atoms)) {}

  const std::vector<Atom>& atoms() const { return atoms_; }
  void AddAtom(Atom atom) { atoms_.push_back(std::move(atom)); }
  bool empty() const { return atoms_.empty(); }

  /// True iff some atom holds. The empty clause is false (standard CNF
  /// convention).
  bool Eval(const ValueVector& values) const;

  /// The *object* of this clause in the paper's terminology: the set of
  /// entities mentioned by its atoms.
  std::set<EntityId> Object() const;

 private:
  std::vector<Atom> atoms_;
};

/// The objects of a database consistency constraint: one entity set per
/// conjunct (paper, Section 3.1). The predicate-wise correctness classes and
/// predicate-wise 2PL serialize each object independently.
using ObjectSetList = std::vector<std::set<EntityId>>;

/// A predicate in conjunctive normal form: an AND of disjunctive clauses.
/// The empty predicate is `true`.
///
/// Predicates serve as database consistency constraints and as transaction
/// input/output conditions (specifications). The per-clause entity sets are
/// the "objects" that drive the predicate-wise correctness classes (PWSR,
/// PWCSR, PC, CPC).
///
/// Copies share their clause storage, which is never written once built:
/// copying a predicate costs a reference-count bump, and AddClause extends
/// a fresh copy of the clauses, so predicates keep value semantics and
/// concurrent copies and const calls on one predicate are safe. AddClause
/// is linear in the clause count; code that builds a predicate from many
/// clauses collects them and constructs it once.
class Predicate {
 public:
  Predicate() = default;
  explicit Predicate(std::vector<Clause> clauses);

  /// The constant-true predicate (no clauses).
  static Predicate True() { return Predicate(); }

  const std::vector<Clause>& clauses() const {
    return clauses_ != nullptr ? *clauses_ : NoClauses();
  }
  void AddClause(Clause clause);
  bool IsTrue() const { return clauses_ == nullptr; }

  /// Evaluates the predicate over a complete value assignment.
  bool Eval(const ValueVector& values) const;

  /// All entities mentioned anywhere in the predicate (the paper's input
  /// set N_t when the predicate is a transaction's input condition).
  std::set<EntityId> Entities() const;

  /// The objects of the predicate: one entity set per clause, deduplicated.
  /// (Paper: "the set of all objects in a predicate".)
  std::vector<std::set<EntityId>> Objects() const;

  /// Conjunction of two predicates (clause union).
  static Predicate And(const Predicate& a, const Predicate& b);

  /// Render with entity names supplied by `name_of`, e.g.
  /// "(x < y | z = 0) & (w >= 3)".
  std::string ToString(
      const std::function<std::string(EntityId)>& name_of) const;

  /// Render with default names e<id>.
  std::string ToString() const;

 private:
  static const std::vector<Clause>& NoClauses();

  /// Null for `true` (no clauses); never points at an empty vector.
  std::shared_ptr<const std::vector<Clause>> clauses_;
};

/// Convenience atom constructors.
Atom MakeAtom(Term lhs, CompareOp op, Term rhs);
Atom EntityVsConst(EntityId e, CompareOp op, Value c);
Atom EntityVsEntity(EntityId a, CompareOp op, EntityId b);
/// The domain constraint lo <= e <= hi, as two unit clauses.
Predicate Range(EntityId e, Value lo, Value hi);

/// Parses a predicate from text. Grammar (whitespace-insensitive):
///
///   predicate := clause ('&' clause)*
///   clause    := '(' atom ('|' atom)* ')' | atom
///   atom      := term op term
///   op        := '=' | '!=' | '<=' | '>=' | '<' | '>'
///   term      := identifier | integer
///
/// Identifiers are resolved to EntityIds via `resolve`; unknown identifiers
/// yield InvalidArgument.
StatusOr<Predicate> ParsePredicate(
    const std::string& text,
    const std::function<StatusOr<EntityId>(const std::string&)>& resolve);

}  // namespace nonserial

#endif  // NONSERIAL_PREDICATE_PREDICATE_H_
