#include "sim/simulator.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "engine/engine.h"

namespace nonserial {

SimStep SimStep::Read(EntityId e) {
  SimStep s;
  s.kind = Kind::kRead;
  s.entity = e;
  return s;
}

SimStep SimStep::Write(EntityId e, Expr expr) {
  SimStep s;
  s.kind = Kind::kWrite;
  s.entity = e;
  s.write_expr = std::move(expr);
  return s;
}

SimStep SimStep::Think(SimTime duration) {
  SimStep s;
  s.kind = Kind::kThink;
  s.duration = duration;
  return s;
}

ProtocolSetup ProtocolSetupOf(const SimWorkload& workload) {
  ProtocolSetup setup;
  setup.objects = workload.objects;
  for (size_t i = 0; i < workload.txs.size(); ++i) {
    std::vector<PlannedOp>& ops = setup.planned_ops[static_cast<int>(i)];
    for (const SimStep& step : workload.txs[i].steps) {
      if (step.kind != SimStep::Kind::kThink) {
        ops.push_back(PlannedOp{step.kind == SimStep::Kind::kWrite,
                                step.entity});
      }
    }
  }
  return setup;
}

std::vector<StepProgram> WorkloadPrograms(const SimWorkload& workload,
                                         SimTime read_duration) {
  std::vector<StepProgram> programs;
  for (const SimTx& tx : workload.txs) {
    StepProgram program;
    program.spec = {tx.name, tx.input, tx.output, tx.predecessors};
    program.arrival = tx.arrival;
    program.ops.push_back(ProgramOp{});  // kBegin
    std::set<EntityId> known;
    for (const SimStep& step : tx.steps) {
      ProgramOp op;
      op.entity = step.entity;
      switch (step.kind) {
        case SimStep::Kind::kRead:
          op.kind = ProgramOp::Kind::kRead;
          op.after = read_duration + tx.think_between_ops;
          break;
        case SimStep::Kind::kWrite: {
          std::set<EntityId> operands;
          step.write_expr.CollectReads(&operands);
          for (EntityId operand : operands) {
            NONSERIAL_CHECK(known.contains(operand))
                << "transaction '" << tx.name << "' writes entity "
                << step.entity << " from entity " << operand
                << " it has not read";
          }
          op.kind = ProgramOp::Kind::kWrite;
          op.write_expr = step.write_expr;
          op.after = tx.think_between_ops;
          break;
        }
        case SimStep::Kind::kThink:
          op.kind = ProgramOp::Kind::kThink;
          op.after = step.duration;
          break;
      }
      if (step.kind != SimStep::Kind::kThink) known.insert(step.entity);
      program.ops.push_back(std::move(op));
    }
    ProgramOp commit;
    commit.kind = ProgramOp::Kind::kCommit;
    program.ops.push_back(std::move(commit));
    programs.push_back(std::move(program));
  }
  AddAncestors(&programs);
  return programs;
}

SimResult Simulator::Run(
    const SimWorkload& workload, const ControllerFactory& factory,
    std::shared_ptr<VersionStore>* store_out,
    std::shared_ptr<ConcurrencyController>* controller_out) const {
  EngineOptions options;
  options.initial = workload.initial;
  options.controller_factory = factory;
  Engine engine(std::move(options));
  SchedulerConfig schedule;
  schedule.restart_backoff = config_.restart_backoff;
  schedule.max_restarts = config_.max_restarts;
  schedule.max_time = config_.max_time;

  SimResult result;
  {
    Scheduler scheduler(&engine,
                        WorkloadPrograms(workload, config_.read_duration),
                        schedule);
    scheduler.Run();
    std::vector<std::string> names;
    for (size_t e = 0; e < workload.initial.size(); ++e) {
      names.push_back(StrCat("x", e));
    }
    result.history =
        HistoryOf(scheduler.programs(), scheduler.events(), names);
    result.final_state = engine.store()->LatestCommittedSnapshot();
    result.all_committed = true;
    for (size_t i = 0; i < workload.txs.size(); ++i) {
      const LaneStats& stats = scheduler.stats(static_cast<int>(i));
      TxOutcome outcome;
      outcome.aborts = stats.aborts;
      outcome.blocked_time = stats.blocked_time;
      outcome.begin_time = stats.begin_time;
      outcome.commit_time = stats.commit_time;
      outcome.wasted_ops = stats.wasted_ops;
      outcome.committed = stats.fate == LaneFate::kCommitted;
      result.total_aborts += outcome.aborts;
      result.total_blocked += outcome.blocked_time;
      result.total_wasted_ops += outcome.wasted_ops;
      if (outcome.committed) {
        ++result.committed_count;
        result.makespan = std::max(result.makespan, outcome.commit_time);
      } else {
        result.all_committed = false;
      }
      result.tx.push_back(outcome);
    }
  }  // Closing the sessions rolls back what the watchdog cut short.
  engine.Shutdown();
  if (store_out != nullptr) *store_out = engine.store_ref();
  if (controller_out != nullptr) *controller_out = engine.controller_ref();
  return result;
}

}  // namespace nonserial
