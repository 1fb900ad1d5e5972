#ifndef NONSERIAL_PROTOCOL_REGISTRY_H_
#define NONSERIAL_PROTOCOL_REGISTRY_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/entity.h"
#include "protocol/controller.h"
#include "protocol/nested_cep.h"
#include "protocol/two_phase_locking.h"
#include "storage/version_store.h"

namespace nonserial {

/// The concurrency-control protocols the library ships.
enum class ProtocolKind {
  kCep,               ///< The paper's Correct Execution Protocol.
  kStrict2pl,         ///< Strict two-phase locking (classical baseline).
  kPredicatewise2pl,  ///< Predicate-wise 2PL (Korth et al. 1988).
  kMvto,              ///< Multiversion timestamp ordering.
  kPwMvto,            ///< Predicate-wise MVTO ("virtual timestamps").
  kNestedCep          ///< Two-level hierarchical CEP.
};

/// Every protocol, in canonical order: S2PL, PW-2PL, MVTO, PW-MVTO, CEP,
/// Nested-CEP.
const std::vector<ProtocolKind>& AllProtocolKinds();

/// The protocol's display name ("S2PL", "CEP", ...).
const char* ProtocolKindName(ProtocolKind kind);

/// Parses a display name; an unknown name is InvalidArgument listing the
/// registered ones.
StatusOr<ProtocolKind> ParseProtocolKind(const std::string& name);

/// Builds a fresh protocol instance over a store. The engine calls it once
/// at construction and once per crash recovery; the simulator once per run.
using ControllerFactory =
    std::function<std::unique_ptr<ConcurrencyController>(VersionStore*)>;

/// Workload-derived configuration. Each caller derives it from its own
/// workload or spec; every protocol reads only the fields it needs.
struct ProtocolSetup {
  /// Conjunct objects of the database constraint (PW-2PL, PW-MVTO).
  ObjectSetList objects = {};
  /// Planned operations per transaction id (S2PL, PW-2PL).
  std::map<int, std::vector<PlannedOp>> planned_ops = {};
  /// Groups and the transaction-to-group map (Nested-CEP).
  NestedCepController::Options nested = {};
};

/// The protocol registry: a factory hosting `kind`, configured by `setup`.
/// CEP and MVTO need no setup.
ControllerFactory MakeControllerFactory(ProtocolKind kind,
                                        ProtocolSetup setup = {});

}  // namespace nonserial

#endif  // NONSERIAL_PROTOCOL_REGISTRY_H_
