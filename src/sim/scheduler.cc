#include "sim/scheduler.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/logging.h"

namespace nonserial {

void AddAncestors(std::vector<StepProgram>* programs) {
  std::vector<std::set<int>> ancestors(programs->size());
  for (size_t i = 0; i < programs->size(); ++i) {
    std::vector<int>& predecessors = (*programs)[i].spec.predecessors;
    for (int pred : predecessors) {
      NONSERIAL_CHECK_LT(pred, static_cast<int>(i))
          << "transaction " << i << " names a later predecessor";
      ancestors[i].insert(pred);
      ancestors[i].insert(ancestors[pred].begin(), ancestors[pred].end());
    }
    for (int ancestor : ancestors[i]) {
      if (std::find(predecessors.begin(), predecessors.end(), ancestor) ==
          predecessors.end()) {
        predecessors.push_back(ancestor);
      }
    }
  }
}

Session::Step StartOp(Session* session, const StepProgram& program, int i,
                      const ValueVector& view) {
  const ProgramOp& op = program.ops[i];
  switch (op.kind) {
    case ProgramOp::Kind::kBegin:
      return session->StartBegin(program.spec);
    case ProgramOp::Kind::kRead:
      return session->StartRead(op.entity);
    case ProgramOp::Kind::kWrite:
      return session->StartWrite(op.entity, op.write_expr.Eval(view));
    case ProgramOp::Kind::kCommit:
      return session->StartCommit();
    case ProgramOp::Kind::kAbort:
      (void)session->Abort();
      break;
    case ProgramOp::Kind::kThink:
      break;
  }
  return Value{0};
}

bool RunOps(Session* session, const StepProgram& program, int first, int last,
            ValueVector* view,
            const std::function<bool(int op, Value value)>& granted) {
  for (int i = first; i < last; ++i) {
    StatusOr<Value> done = session->Await(StartOp(session, program, i, *view));
    if (!done.ok()) return false;
    const ProgramOp& op = program.ops[i];
    if (op.kind == ProgramOp::Kind::kRead ||
        op.kind == ProgramOp::Kind::kWrite) {
      (*view)[op.entity] = *done;
    }
    if (!granted(i, *done)) return false;
  }
  return true;
}

EmittedHistory HistoryOf(const std::vector<StepProgram>& programs,
                         const std::vector<LaneEvent>& events,
                         const std::vector<std::string>& entity_names) {
  const int n = static_cast<int>(programs.size());
  auto kind_of = [&programs](const LaneEvent& event) {
    return programs[event.lane].ops[event.op].kind;
  };
  std::vector<int> committed_attempt(n, -1);
  for (const LaneEvent& event : events) {
    if (event.kind == LaneEvent::Kind::kGranted &&
        kind_of(event) == ProgramOp::Kind::kCommit) {
      committed_attempt[event.lane] = event.attempt;
    }
  }
  EmittedHistory out;
  for (const std::string& name : entity_names) out.schedule.InternEntity(name);
  // Uncommitted lanes commit after the last op, last in sequence.
  out.commits.position.assign(n, 0);
  out.commits.sequence.assign(n, n);
  for (const LaneEvent& event : events) {
    if (event.kind != LaneEvent::Kind::kGranted ||
        committed_attempt[event.lane] != event.attempt) {
      continue;  // Aborted work.
    }
    const ProgramOp& op = programs[event.lane].ops[event.op];
    if (op.kind == ProgramOp::Kind::kRead) {
      out.schedule.Append(event.lane, OpKind::kRead, op.entity);
    } else if (op.kind == ProgramOp::Kind::kWrite) {
      out.schedule.Append(event.lane, OpKind::kWrite, op.entity);
    } else if (op.kind == ProgramOp::Kind::kCommit) {
      out.commits.position[event.lane] =
          static_cast<int>(out.schedule.ops().size());
      out.commits.sequence[event.lane] =
          static_cast<int>(out.committed.size());
      out.committed.push_back(event.lane);
    }
  }
  for (int tx = 0; tx < n; ++tx) {
    if (committed_attempt[tx] < 0) {
      out.commits.position[tx] = static_cast<int>(out.schedule.ops().size());
    }
  }
  return out;
}

Scheduler::Scheduler(Engine* engine, std::vector<StepProgram> programs,
                     SchedulerConfig config)
    : engine_(engine),
      programs_(std::move(programs)),
      config_(config),
      lanes_(programs_.size()) {
  for (int i = 0; i < static_cast<int>(lanes_.size()); ++i) {
    const std::vector<ProgramOp>& ops = programs_[i].ops;
    NONSERIAL_CHECK(!ops.empty() && ops[0].kind == ProgramOp::Kind::kBegin &&
                    (ops.back().kind == ProgramOp::Kind::kCommit ||
                     ops.back().kind == ProgramOp::Kind::kAbort))
        << "step program " << i << " must run from a begin to a commit/abort";
    for (int pred : programs_[i].spec.predecessors) {
      NONSERIAL_CHECK_LT(pred, i) << "step program " << i
                                  << " names a later predecessor";
    }
    lanes_[i].session = engine_->OpenSession();
    NONSERIAL_CHECK_EQ(lanes_[i].session->tx(), i)
        << "the scheduler needs a fresh engine";
    lanes_[i].ready_at = programs_[i].arrival;
  }
}

void Scheduler::Run() {
  for (;;) {
    while (Pass()) {
    }
    SimTime next = std::numeric_limits<SimTime>::max();
    for (const Lane& lane : lanes_) {
      if (lane.stats.fate == LaneFate::kRunning && !lane.parked &&
          lane.cursor < lane.authorized) {
        next = std::min(next, lane.ready_at);
      }
    }
    if (next <= now_ || next > config_.max_time) return;
    now_ = next;
  }
}

void Scheduler::Halt() {
  for (int i = 0; i < static_cast<int>(lanes_.size()); ++i) {
    Lane& lane = lanes_[i];
    if (lane.stats.fate != LaneFate::kRunning) continue;
    Unpark(&lane);
    (void)lane.session->Abort();
    Log(LaneEvent::Kind::kHalted, i);
    lane.in_attempt = false;
    lane.stats.fate = LaneFate::kHalted;
    SweepSignals();
  }
}

bool Scheduler::Pass() {
  bool progress = false;
  for (int i = 0; i < static_cast<int>(lanes_.size()); ++i) {
    while (Step(i)) progress = true;
  }
  return progress || std::any_of(lanes_.begin(), lanes_.end(),
                                 [](const Lane& lane) {
                                   return lane.parked && lane.woken;
                                 });
}

bool Scheduler::Step(int i) {
  Lane& lane = lanes_[i];
  if (lane.stats.fate != LaneFate::kRunning) return false;
  const ProgramOp& op = programs_[i].ops[lane.cursor];
  Session::Step step;
  if (lane.parked) {
    lane.woken = false;
    step = lane.session->Resume();
  } else if (lane.cursor >= lane.authorized || lane.ready_at > now_) {
    return false;
  } else {
    if (op.kind == ProgramOp::Kind::kBegin) {
      lane.in_attempt = true;
      lane.view = engine_->options().initial;
    }
    step = StartOp(lane.session.get(), programs_[i], lane.cursor, lane.view);
  }
  if (!step.has_value()) {
    if (!lane.parked) lane.parked_at = now_;
    lane.parked = true;
    SweepSignals();  // A blocked request may still signal other lanes.
    return false;
  }
  Unpark(&lane);
  if (!step->ok()) {
    NONSERIAL_CHECK(step->status().code() == StatusCode::kAborted)
        << "lane " << i << " op " << lane.cursor << ": " << step->status();
    Log(LaneEvent::Kind::kAborted, i);
    EndAttempt(i);
  } else {
    Value value = step->value();
    switch (op.kind) {
      case ProgramOp::Kind::kBegin:
        if (lane.stats.begin_time < 0) lane.stats.begin_time = now_;
        break;
      case ProgramOp::Kind::kWrite:
      case ProgramOp::Kind::kRead:
        lane.view[op.entity] = value;
        ++lane.ops_this_attempt;
        break;
      case ProgramOp::Kind::kCommit:
        lane.in_attempt = false;
        lane.stats.fate = LaneFate::kCommitted;
        lane.stats.commit_time = now_;
        break;
      case ProgramOp::Kind::kAbort:
        lane.in_attempt = false;
        lane.stats.fate = LaneFate::kAborted;
        break;
      case ProgramOp::Kind::kThink:
        break;
    }
    Log(LaneEvent::Kind::kGranted, i, value);
    lane.ready_at = now_ + op.after;
    ++lane.cursor;
  }
  SweepSignals();
  return true;
}

void Scheduler::Unpark(Lane* lane) {
  if (lane->parked) lane->stats.blocked_time += now_ - lane->parked_at;
  lane->parked = false;
  lane->woken = false;
}

void Scheduler::Log(LaneEvent::Kind kind, int i, Value value) {
  events_.push_back({kind, i, lanes_[i].attempt, lanes_[i].cursor, value});
}

void Scheduler::SweepSignals() {
  for (;;) {
    std::vector<int> doomed;
    for (int i = 0; i < static_cast<int>(lanes_.size()); ++i) {
      Lane& lane = lanes_[i];
      if (!lane.in_attempt) continue;
      Engine::Signal signal = lane.session->TakeSignal();
      if (signal == Engine::Signal::kForced) doomed.push_back(i);
      if (signal == Engine::Signal::kWoken) lane.woken = true;
    }
    if (doomed.empty()) return;
    for (int i : doomed) {
      (void)lanes_[i].session->Abort();
      Log(LaneEvent::Kind::kForcedAbort, i);
      EndAttempt(i);
    }
  }
}

void Scheduler::EndAttempt(int i) {
  Lane& lane = lanes_[i];
  Unpark(&lane);
  LaneStats& stats = lane.stats;
  ++stats.aborts;
  stats.wasted_ops += lane.ops_this_attempt;
  lane.in_attempt = false;
  lane.cursor = 0;
  lane.ops_this_attempt = 0;
  ++lane.attempt;
  if (stats.aborts > config_.max_restarts) {
    stats.fate = LaneFate::kAborted;
    return;
  }
  // Deterministic per-lane jitter plus linear growth: repeated mutual
  // aborts (e.g. MVTO read/write livelock between long transactions)
  // desynchronize and thin out until someone finishes.
  SimTime jitter = 1 + ((i * 7 + stats.aborts * 13) % 8);
  SimTime growth = std::min(1 + stats.aborts, 128);
  lane.ready_at = now_ + config_.restart_backoff * jitter * growth;
}

}  // namespace nonserial
