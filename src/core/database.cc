#include "core/database.h"

#include <algorithm>
#include <sstream>

#include "common/strings.h"
#include "protocol/cep.h"
#include "protocol/mvto.h"
#include "protocol/pw_mvto.h"
#include "protocol/two_phase_locking.h"

namespace nonserial {

namespace {

std::string SummarizeStats(const ConcurrencyController& controller) {
  std::ostringstream os;
  if (const auto* cep =
          dynamic_cast<const CorrectExecutionProtocol*>(&controller)) {
    const ProtocolMetrics& m = *cep->metrics();
    os << "validations=" << m.validations.value()
       << " retries=" << m.validation_fails.value()
       << " rescans=" << m.validation_rescans.value()
       << " reevals=" << m.reevals.value()
       << " reassigns=" << m.reassigns.value()
       << " po_aborts=" << m.po_aborts.value()
       << " cascade_aborts=" << m.cascade_aborts.value()
       << " search_nodes=" << m.search_nodes.sum();
  } else if (const auto* tpl =
                 dynamic_cast<const TwoPhaseLockingController*>(&controller)) {
    const TwoPhaseLockingController::Stats& s = tpl->stats();
    os << "lock_waits=" << s.lock_waits
       << " deadlock_aborts=" << s.deadlock_aborts
       << " group_releases=" << s.group_releases;
  } else if (const auto* mvto =
                 dynamic_cast<const MvtoController*>(&controller)) {
    const MvtoController::Stats& s = mvto->stats();
    os << "late_write_aborts=" << s.late_write_aborts
       << " commit_waits=" << s.commit_waits;
  } else if (const auto* pw_mvto =
                 dynamic_cast<const PwMvtoController*>(&controller)) {
    const PwMvtoController::Stats& s = pw_mvto->stats();
    os << "late_write_aborts=" << s.late_write_aborts
       << " commit_waits=" << s.commit_waits
       << " timestamps=" << s.timestamps_drawn;
  }
  return os.str();
}

}  // namespace

RunReport RunWorkload(const SimWorkload& workload, ProtocolKind kind,
                      const Predicate& constraint, SimConfig config) {
  Simulator simulator(config);
  std::shared_ptr<VersionStore> store;
  std::shared_ptr<ConcurrencyController> controller;
  RunReport report;
  report.protocol = ProtocolKindName(kind);
  report.result = simulator.Run(
      workload, MakeControllerFactory(kind, ProtocolSetupOf(workload)), &store,
      &controller);
  report.stats_summary = SummarizeStats(*controller);
  if (kind == ProtocolKind::kCep) {
    const auto* cep =
        dynamic_cast<const CorrectExecutionProtocol*>(controller.get());
    report.verification =
        VerifyCepHistory(workload, *cep, *store, constraint);
  }
  return report;
}

StatusOr<EntityId> Database::AddEntity(const std::string& name,
                                       Value initial) {
  auto id = catalog_.Register(name);
  if (!id.ok()) return id.status();
  initial_.push_back(initial);
  return id;
}

Status Database::SetConstraint(const std::string& cnf_text) {
  auto parsed = ParsePredicate(cnf_text, [this](const std::string& name) {
    return catalog_.Resolve(name);
  });
  if (!parsed.ok()) return parsed.status();
  constraint_ = std::move(parsed).value();
  objects_ = constraint_.Objects();
  return Status::OK();
}

int Database::NewTransaction(const std::string& name, SimTime arrival,
                             SimTime think_time) {
  PendingTx tx;
  tx.script.name = name;
  tx.script.arrival = arrival;
  tx.script.think_between_ops = think_time;
  txs_.push_back(std::move(tx));
  return static_cast<int>(txs_.size()) - 1;
}

Status Database::After(int tx, int predecessor) {
  if (tx < 0 || tx >= static_cast<int>(txs_.size()) || predecessor < 0 ||
      predecessor >= static_cast<int>(txs_.size()) || predecessor == tx) {
    return Status::InvalidArgument("bad transaction index");
  }
  txs_[tx].script.predecessors.push_back(predecessor);
  return Status::OK();
}

Status Database::Read(int tx, const std::string& entity) {
  auto id = catalog_.Resolve(entity);
  if (!id.ok()) return id.status();
  txs_[tx].script.steps.push_back(SimStep::Read(id.value()));
  txs_[tx].reads.insert(id.value());
  return Status::OK();
}

Status Database::Write(int tx, const std::string& entity, Expr expr) {
  auto id = catalog_.Resolve(entity);
  if (!id.ok()) return id.status();
  // Operands must have been read first (the simulator enforces this too).
  std::set<EntityId> operands;
  expr.CollectReads(&operands);
  for (EntityId operand : operands) {
    if (!txs_[tx].reads.contains(operand)) {
      return Status::FailedPrecondition(
          StrCat("transaction '", txs_[tx].script.name, "' writes '", entity,
                 "' from '", catalog_.Name(operand),
                 "' which it has not read"));
    }
  }
  txs_[tx].script.steps.push_back(SimStep::Write(id.value(), std::move(expr)));
  txs_[tx].writes.insert(id.value());
  return Status::OK();
}

Status Database::Think(int tx, SimTime duration) {
  txs_[tx].script.steps.push_back(SimStep::Think(duration));
  return Status::OK();
}

Status Database::SetInput(int tx, const std::string& cnf_text) {
  auto parsed = ParsePredicate(cnf_text, [this](const std::string& name) {
    return catalog_.Resolve(name);
  });
  if (!parsed.ok()) return parsed.status();
  txs_[tx].script.input = std::move(parsed).value();
  txs_[tx].explicit_input = true;
  return Status::OK();
}

Status Database::SetOutput(int tx, const std::string& cnf_text) {
  auto parsed = ParsePredicate(cnf_text, [this](const std::string& name) {
    return catalog_.Resolve(name);
  });
  if (!parsed.ok()) return parsed.status();
  txs_[tx].script.output = std::move(parsed).value();
  txs_[tx].explicit_output = true;
  return Status::OK();
}

StatusOr<Expr> Database::Var(const std::string& entity) const {
  auto id = catalog_.Resolve(entity);
  if (!id.ok()) return id.status();
  return Expr::Var(id.value());
}

Predicate Database::DerivePredicate(const std::set<EntityId>& entities) const {
  Predicate out;
  std::set<EntityId> covered;
  for (const Clause& clause : constraint_.clauses()) {
    std::set<EntityId> object = clause.Object();
    if (object.empty()) continue;
    if (std::includes(entities.begin(), entities.end(), object.begin(),
                      object.end())) {
      out.AddClause(clause);
      covered.insert(object.begin(), object.end());
    }
  }
  for (EntityId e : entities) {
    if (!covered.contains(e)) {
      // Reflexive clause: always true, but makes the predicate mention e so
      // the entity lands in the transaction's input set N_t.
      out.AddClause(Clause({EntityVsEntity(e, CompareOp::kEq, e)}));
    }
  }
  return out;
}

StatusOr<SimWorkload> Database::BuildWorkload() const {
  if (catalog_.size() == 0) {
    return Status::FailedPrecondition("no entities registered");
  }
  SimWorkload workload;
  workload.initial = initial_;
  workload.objects = objects_;
  for (const PendingTx& pending : txs_) {
    SimTx script = pending.script;
    if (!pending.explicit_input) {
      std::set<EntityId> touched = pending.reads;
      script.input = DerivePredicate(touched);
    }
    if (!pending.explicit_output) {
      script.output = DerivePredicate(pending.writes);
    }
    workload.txs.push_back(std::move(script));
  }
  return workload;
}

StatusOr<RunReport> Database::Run(ProtocolKind kind, SimConfig config) {
  auto workload = BuildWorkload();
  if (!workload.ok()) return workload.status();
  return RunWorkload(workload.value(), kind, constraint_, config);
}

}  // namespace nonserial
