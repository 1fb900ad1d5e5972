#include "predicate/batch_eval.h"

#include <cstring>

namespace nonserial {

void OrCompareStripeScalar(const Value* lhs, CompareOp op, Value rhs,
                           int32_t n, uint8_t* out) {
  switch (op) {
    case CompareOp::kEq:
      for (int32_t i = 0; i < n; ++i) out[i] |= (lhs[i] == rhs);
      break;
    case CompareOp::kNe:
      for (int32_t i = 0; i < n; ++i) out[i] |= (lhs[i] != rhs);
      break;
    case CompareOp::kLt:
      for (int32_t i = 0; i < n; ++i) out[i] |= (lhs[i] < rhs);
      break;
    case CompareOp::kLe:
      for (int32_t i = 0; i < n; ++i) out[i] |= (lhs[i] <= rhs);
      break;
    case CompareOp::kGt:
      for (int32_t i = 0; i < n; ++i) out[i] |= (lhs[i] > rhs);
      break;
    case CompareOp::kGe:
      for (int32_t i = 0; i < n; ++i) out[i] |= (lhs[i] >= rhs);
      break;
  }
}

void OrCompareScalarStripe(Value lhs, CompareOp op, const Value* rhs,
                           int32_t n, uint8_t* out) {
  switch (op) {
    case CompareOp::kEq:
      for (int32_t i = 0; i < n; ++i) out[i] |= (lhs == rhs[i]);
      break;
    case CompareOp::kNe:
      for (int32_t i = 0; i < n; ++i) out[i] |= (lhs != rhs[i]);
      break;
    case CompareOp::kLt:
      for (int32_t i = 0; i < n; ++i) out[i] |= (lhs < rhs[i]);
      break;
    case CompareOp::kLe:
      for (int32_t i = 0; i < n; ++i) out[i] |= (lhs <= rhs[i]);
      break;
    case CompareOp::kGt:
      for (int32_t i = 0; i < n; ++i) out[i] |= (lhs > rhs[i]);
      break;
    case CompareOp::kGe:
      for (int32_t i = 0; i < n; ++i) out[i] |= (lhs >= rhs[i]);
      break;
  }
}

void EvalClauseOverStripe(const Clause& clause, const ValueVector& values,
                          EntityId striped_entity, const Value* stripe,
                          int32_t n, uint8_t* out) {
  std::memset(out, 0, static_cast<size_t>(n));
  for (const Atom& atom : clause.atoms()) {
    bool lhs_striped = atom.lhs.is_entity && atom.lhs.entity == striped_entity;
    bool rhs_striped = atom.rhs.is_entity && atom.rhs.entity == striped_entity;
    if (!lhs_striped && !rhs_striped) {
      // Constant for the whole stripe: one scalar evaluation. A true atom
      // satisfies the disjunction for every candidate — done.
      if (EvalCompare(atom.lhs.Resolve(values), atom.op,
                      atom.rhs.Resolve(values))) {
        std::memset(out, 1, static_cast<size_t>(n));
        return;
      }
      continue;
    }
    if (lhs_striped && rhs_striped) {
      // e op e: constant truth value per op, identical for every candidate.
      // Evaluate with any value (x op x).
      if (EvalCompare(0, atom.op, 0)) {
        std::memset(out, 1, static_cast<size_t>(n));
        return;
      }
      continue;
    }
    if (lhs_striped) {
      OrCompareStripeScalar(stripe, atom.op, atom.rhs.Resolve(values), n, out);
    } else {
      OrCompareScalarStripe(atom.lhs.Resolve(values), atom.op, stripe, n, out);
    }
  }
}

}  // namespace nonserial
