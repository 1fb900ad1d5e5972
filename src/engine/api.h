#ifndef NONSERIAL_ENGINE_API_H_
#define NONSERIAL_ENGINE_API_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "predicate/predicate.h"
#include "predicate/value.h"

namespace nonserial {
namespace engine {

/// Static description of a transaction handed to the engine when a session
/// (or a concurrency controller) starts it: its specification (I_t, O_t)
/// and its position in the parent's partial order P (predecessor
/// transaction ids). Promoted from protocol/controller.h (where TxProfile
/// remains as an alias) so that the session-facing facade and the
/// controller layer share one definition.
struct TxSpec {
  std::string name;
  Predicate input;   ///< I_t; every entity the transaction reads appears here.
  Predicate output;  ///< O_t; checked at commit.
  std::vector<int> predecessors;  ///< Direct P-edges into this transaction.
};

/// Result of a single concurrency-control request at the controller layer.
/// Promoted from protocol/controller.h (where ReqResult remains as an
/// alias). The session facade never surfaces kBlocked — Session methods
/// park and retry internally and return Status instead.
enum class RequestOutcome {
  kGranted,  ///< The operation was performed.
  kBlocked,  ///< Not performed; the caller will be woken (TakeWakeups) and
             ///< must retry the same request.
  kAborted   ///< The controller aborted this transaction; the caller must
             ///< call Abort() and restart the attempt.
};

}  // namespace engine
}  // namespace nonserial

#endif  // NONSERIAL_ENGINE_API_H_
