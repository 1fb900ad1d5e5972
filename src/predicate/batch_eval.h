#ifndef NONSERIAL_PREDICATE_BATCH_EVAL_H_
#define NONSERIAL_PREDICATE_BATCH_EVAL_H_

#include <cstdint>

#include "predicate/predicate.h"
#include "predicate/value.h"

namespace nonserial {

/// \file
/// Batch (stripe) predicate evaluation — the assignment search's hot path.
///
/// The assignment search spends its time answering one question shape: "for
/// which candidate values v of entity e does clause C hold, given the other
/// entities' current values?" The scalar path answers it one candidate at a
/// time through Atom::Eval (a Resolve + switch per atom per candidate). The
/// batch path answers it for a whole contiguous candidate stripe at once:
/// the comparison operator is hoisted OUT of the candidate loop, so each
/// atom contributes one tight `out[i] |= (stripe[i] OP rhs)` loop over
/// contiguous memory that the compiler auto-vectorizes (SIMD-width compare
/// batches), and atoms not mentioning the striped entity collapse to one
/// scalar evaluation for the entire stripe.

/// out[i] |= (lhs[i] op rhs) for i in [0, n). The op switch is outside the
/// loop; each case is a branch-free compare loop over contiguous values.
void OrCompareStripeScalar(const Value* lhs, CompareOp op, Value rhs,
                           int32_t n, uint8_t* out);

/// out[i] |= (lhs op rhs[i]) for i in [0, n).
void OrCompareScalarStripe(Value lhs, CompareOp op, const Value* rhs,
                           int32_t n, uint8_t* out);

/// Evaluates `clause` once per candidate: out[i] = clause value with
/// values[striped_entity] replaced by stripe[i] (all other entities read
/// from `values`). `out` must hold n bytes; results are 0/1, overwritten.
/// Atoms are classified once: atoms not mentioning the striped entity are
/// evaluated once as scalars (a true one short-circuits the whole stripe);
/// atoms mentioning it become vector compare loops.
void EvalClauseOverStripe(const Clause& clause, const ValueVector& values,
                          EntityId striped_entity, const Value* stripe,
                          int32_t n, uint8_t* out);

}  // namespace nonserial

#endif  // NONSERIAL_PREDICATE_BATCH_EVAL_H_
