#ifndef NONSERIAL_CORE_VERIFY_H_
#define NONSERIAL_CORE_VERIFY_H_

#include "common/status.h"
#include "model/execution.h"
#include "predicate/predicate.h"
#include "protocol/cep.h"
#include "sim/simulator.h"
#include "storage/version_store.h"

namespace nonserial {

/// Theorem 2 of the paper states the Correct Execution Protocol admits only
/// correct executions. This function checks one concrete run: it rebuilds a
/// model-layer transaction tree and execution (R, X) from the protocol's
/// committed-transaction records and the version store, then re-verifies it
/// with the Section 3 checkers (execution structure, parent-based property,
/// input/output predicates).
///
/// The tree is the standard-model encoding of Section 4.1: a root whose
/// children are the committed transactions plus a final pseudo-transaction
/// t_f that reads the whole final database; t_f's input predicate is the
/// database consistency constraint.
///
/// Returns OK iff the emitted history is a correct, parent-based execution.
///
/// `cache`, when non-null, memoizes the predicate-conjunct evaluations of
/// the correctness check (see predicate/eval_cache.h). Sharing the engine's
/// cache lets post-hoc verification re-use the output-condition checks the
/// protocol performed at commit; repeated verification of the same history
/// (crash-recovery replay cycles) hits almost entirely.
Status VerifyCepHistory(const SimWorkload& workload,
                        const CorrectExecutionProtocol& cep,
                        const VersionStore& store, const Predicate& constraint,
                        EvalCache* cache = nullptr);

/// Record-level variant: verifies a history from the committed-transaction
/// records and the final committed snapshot alone, with no live engine or
/// store. This is what crash recovery needs — after a simulated kill the
/// engine is gone, and the records plus snapshot are exactly what the
/// write-ahead log reconstructs. `cache` as above.
Status VerifyCepHistory(
    const SimWorkload& workload,
    const std::vector<CorrectExecutionProtocol::TxRecord>& records,
    const ValueVector& final_committed_snapshot, const Predicate& constraint,
    EvalCache* cache = nullptr);

}  // namespace nonserial

#endif  // NONSERIAL_CORE_VERIFY_H_
