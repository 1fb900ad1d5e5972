#ifndef NONSERIAL_CORE_DATABASE_H_
#define NONSERIAL_CORE_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/verify.h"
#include "model/entity.h"
#include "predicate/predicate.h"
#include "protocol/registry.h"
#include "sim/simulator.h"

namespace nonserial {

/// Outcome of running a workload under one protocol.
struct RunReport {
  std::string protocol;
  SimResult result;
  /// For kCep: the Theorem 2 re-verification of the emitted history (OK =
  /// the history is a correct, parent-based execution). For other
  /// protocols: OK without verification.
  Status verification = Status::OK();
  /// Protocol-specific counters, rendered for humans.
  std::string stats_summary;
};

/// Runs a workload under a flat protocol and (for CEP) formally verifies the
/// emitted history against the Section 3 model.
RunReport RunWorkload(const SimWorkload& workload, ProtocolKind kind,
                      const Predicate& constraint,
                      SimConfig config = SimConfig());

/// High-level facade: a named-entity database with an explicit CNF
/// consistency constraint and scripted long-duration transactions. This is
/// the API the examples build on.
///
///   Database db;
///   db.AddEntity("x", 50);
///   db.AddEntity("y", 50);
///   db.SetConstraint("(x >= 0) & (x <= 100) & (y >= 0) & (y <= 100)");
///   int t1 = db.NewTransaction("designer-a");
///   db.Read(t1, "x");
///   db.Write(t1, "x", db.Var("x") + 10);   // via Expr helpers
///   RunReport report = db.Run(ProtocolKind::kCep);
class Database {
 public:
  Database() = default;

  /// Registers an entity with its initial value.
  StatusOr<EntityId> AddEntity(const std::string& name, Value initial);

  /// Parses and installs the database consistency constraint; its conjunct
  /// objects become the default object decomposition.
  Status SetConstraint(const std::string& cnf_text);

  /// Overrides the object decomposition (e.g. coarser groups).
  void SetObjects(ObjectSetList objects) { objects_ = std::move(objects); }

  const EntityCatalog& catalog() const { return catalog_; }
  const Predicate& constraint() const { return constraint_; }

  /// Creates a transaction; returns its index. `arrival` is its simulated
  /// start time and `think_time` the latency between its operations.
  int NewTransaction(const std::string& name, SimTime arrival = 0,
                     SimTime think_time = 0);

  /// Declares that `tx` must follow `predecessor` in the partial order.
  Status After(int tx, int predecessor);

  /// Appends a read step.
  Status Read(int tx, const std::string& entity);

  /// Appends a write step computing `expr` from previously read entities.
  Status Write(int tx, const std::string& entity, Expr expr);

  /// Appends an explicit think step.
  Status Think(int tx, SimTime duration);

  /// Overrides the derived input/output predicates with explicit CNF text.
  Status SetInput(int tx, const std::string& cnf_text);
  Status SetOutput(int tx, const std::string& cnf_text);

  /// Entity-reference expression for write computations.
  StatusOr<Expr> Var(const std::string& entity) const;

  /// Finalizes derived specifications and returns the workload.
  StatusOr<SimWorkload> BuildWorkload() const;

  /// Builds the workload and runs it under `kind`.
  StatusOr<RunReport> Run(ProtocolKind kind, SimConfig config = SimConfig());

 private:
  struct PendingTx {
    SimTx script;
    bool explicit_input = false;
    bool explicit_output = false;
    std::set<EntityId> reads;
    std::set<EntityId> writes;
  };

  /// Derives a specification predicate for a touched-entity set: the
  /// constraint clauses fully covered by the set, plus a reflexive clause
  /// (e = e) for each uncovered entity so the predicate mentions every
  /// entity the transaction touches (the model requires every read entity
  /// to appear in I_t).
  Predicate DerivePredicate(const std::set<EntityId>& entities) const;

  EntityCatalog catalog_;
  ValueVector initial_;
  Predicate constraint_;
  ObjectSetList objects_;
  std::vector<PendingTx> txs_;
};

}  // namespace nonserial

#endif  // NONSERIAL_CORE_DATABASE_H_
