#include "predicate/sat.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace nonserial {

bool BoolFormula::Eval(const std::vector<bool>& assignment) const {
  for (const std::vector<BoolLiteral>& clause : clauses) {
    bool satisfied = false;
    for (const BoolLiteral& lit : clause) {
      if (assignment[lit.var] != lit.negated) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

std::string BoolFormula::ToString() const {
  std::ostringstream os;
  os << "p cnf " << num_vars << " " << clauses.size() << "\n";
  for (const std::vector<BoolLiteral>& clause : clauses) {
    for (const BoolLiteral& lit : clause) {
      os << (lit.negated ? -(lit.var + 1) : (lit.var + 1)) << " ";
    }
    os << "0\n";
  }
  return os.str();
}

namespace {

enum class Truth : int8_t { kUnassigned = -1, kFalse = 0, kTrue = 1 };

struct DpllState {
  const BoolFormula* formula;
  std::vector<Truth> assignment;
  SatStats* stats;

  bool LitTrue(const BoolLiteral& lit) const {
    Truth t = assignment[lit.var];
    if (t == Truth::kUnassigned) return false;
    return (t == Truth::kTrue) != lit.negated;
  }
  bool LitFalse(const BoolLiteral& lit) const {
    Truth t = assignment[lit.var];
    if (t == Truth::kUnassigned) return false;
    return (t == Truth::kTrue) == lit.negated;
  }

  // Unit propagation over all clauses until fixpoint. Returns false on
  // conflict; appends assigned vars to `trail`.
  bool Propagate(std::vector<int>* trail) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const std::vector<BoolLiteral>& clause : formula->clauses) {
        int unassigned_count = 0;
        const BoolLiteral* unit = nullptr;
        bool satisfied = false;
        for (const BoolLiteral& lit : clause) {
          if (LitTrue(lit)) {
            satisfied = true;
            break;
          }
          if (assignment[lit.var] == Truth::kUnassigned) {
            ++unassigned_count;
            unit = &lit;
          }
        }
        if (satisfied) continue;
        if (unassigned_count == 0) return false;  // Conflict.
        if (unassigned_count == 1) {
          assignment[unit->var] = unit->negated ? Truth::kFalse : Truth::kTrue;
          trail->push_back(unit->var);
          if (stats != nullptr) ++stats->unit_propagations;
          changed = true;
        }
      }
    }
    return true;
  }

  // Assigns every pure literal (a variable occurring with one polarity
  // among the not-yet-satisfied clauses) the value that satisfies its
  // occurrences. Never conflicts, but may create fresh units, so callers
  // alternate with Propagate until fixpoint. Returns true iff anything was
  // assigned.
  bool EliminatePureLiterals(std::vector<int>* trail) {
    // Bit 0: positive occurrence; bit 1: negated occurrence.
    std::vector<uint8_t> polarity(formula->num_vars, 0);
    for (const std::vector<BoolLiteral>& clause : formula->clauses) {
      bool satisfied = false;
      for (const BoolLiteral& lit : clause) {
        if (LitTrue(lit)) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) continue;
      for (const BoolLiteral& lit : clause) {
        if (assignment[lit.var] == Truth::kUnassigned) {
          polarity[lit.var] |= lit.negated ? 2 : 1;
        }
      }
    }
    bool assigned = false;
    for (int v = 0; v < formula->num_vars; ++v) {
      if (assignment[v] != Truth::kUnassigned) continue;
      if (polarity[v] != 1 && polarity[v] != 2) continue;
      assignment[v] = polarity[v] == 1 ? Truth::kTrue : Truth::kFalse;
      trail->push_back(v);
      if (stats != nullptr) ++stats->pure_eliminations;
      assigned = true;
    }
    return assigned;
  }

  bool Solve() {
    std::vector<int> trail;
    for (;;) {
      if (!Propagate(&trail)) {
        Undo(trail);
        return false;
      }
      if (!EliminatePureLiterals(&trail)) break;
    }
    int var = PickBranchVariable();
    if (var < 0) return true;  // All assigned, no conflict: satisfiable.
    for (Truth value : {Truth::kTrue, Truth::kFalse}) {
      if (stats != nullptr) ++stats->decisions;
      assignment[var] = value;
      if (Solve()) return true;
      if (stats != nullptr) ++stats->backtracks;
      assignment[var] = Truth::kUnassigned;
    }
    Undo(trail);
    return false;
  }

  void Undo(const std::vector<int>& trail) {
    for (int var : trail) assignment[var] = Truth::kUnassigned;
  }

  // Most-frequent unassigned variable among unsatisfied clauses.
  int PickBranchVariable() const {
    std::vector<int> score(formula->num_vars, 0);
    bool any = false;
    for (const std::vector<BoolLiteral>& clause : formula->clauses) {
      bool satisfied = false;
      for (const BoolLiteral& lit : clause) {
        if (LitTrue(lit)) {
          satisfied = true;
          break;
        }
      }
      if (satisfied) continue;
      for (const BoolLiteral& lit : clause) {
        if (assignment[lit.var] == Truth::kUnassigned) {
          ++score[lit.var];
          any = true;
        }
      }
    }
    if (!any) return -1;
    int best = -1;
    for (int v = 0; v < formula->num_vars; ++v) {
      if (assignment[v] == Truth::kUnassigned && score[v] > 0 &&
          (best < 0 || score[v] > score[best])) {
        best = v;
      }
    }
    return best;
  }
};

}  // namespace

std::optional<std::vector<bool>> SolveSat(const BoolFormula& formula,
                                          SatStats* stats) {
  // Empty clause => trivially unsatisfiable.
  for (const std::vector<BoolLiteral>& clause : formula.clauses) {
    if (clause.empty()) return std::nullopt;
  }
  DpllState state;
  state.formula = &formula;
  state.assignment.assign(formula.num_vars, Truth::kUnassigned);
  state.stats = stats;
  if (!state.Solve()) return std::nullopt;
  std::vector<bool> result(formula.num_vars, false);
  for (int v = 0; v < formula.num_vars; ++v) {
    result[v] = state.assignment[v] == Truth::kTrue;
  }
  NONSERIAL_CHECK(formula.Eval(result));
  return result;
}

BoolFormula RandomKSat(int num_vars, int num_clauses, int k, Rng* rng) {
  NONSERIAL_CHECK_GE(num_vars, k);
  BoolFormula formula;
  formula.num_vars = num_vars;
  formula.clauses.reserve(num_clauses);
  for (int c = 0; c < num_clauses; ++c) {
    std::vector<int> vars;
    while (static_cast<int>(vars.size()) < k) {
      int v = static_cast<int>(rng->Uniform(static_cast<uint32_t>(num_vars)));
      if (std::find(vars.begin(), vars.end(), v) == vars.end()) {
        vars.push_back(v);
      }
    }
    std::vector<BoolLiteral> clause;
    for (int v : vars) {
      clause.push_back(BoolLiteral{v, rng->Bernoulli(0.5)});
    }
    formula.clauses.push_back(std::move(clause));
  }
  return formula;
}

Predicate FormulaToPredicate(const BoolFormula& formula) {
  std::vector<Clause> clauses;
  for (const std::vector<BoolLiteral>& bool_clause : formula.clauses) {
    Clause clause;
    for (const BoolLiteral& lit : bool_clause) {
      clause.AddAtom(EntityVsConst(static_cast<EntityId>(lit.var),
                                   CompareOp::kEq, lit.negated ? 0 : 1));
    }
    clauses.push_back(std::move(clause));
  }
  return Predicate(std::move(clauses));
}

std::vector<std::vector<Value>> Lemma1CandidateSets(int num_vars) {
  return std::vector<std::vector<Value>>(num_vars,
                                         std::vector<Value>{0, 1});
}

}  // namespace nonserial
