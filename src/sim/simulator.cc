#include "sim/simulator.h"

#include <algorithm>
#include <queue>
#include <set>

#include "common/logging.h"
#include "common/strings.h"

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

std::vector<std::vector<std::pair<bool, EntityId>>> PlannedOpsOf(
    const SimWorkload& workload) {
  std::vector<std::vector<std::pair<bool, EntityId>>> out;
  out.reserve(workload.txs.size());
  for (const SimTx& tx : workload.txs) {
    std::vector<std::pair<bool, EntityId>> ops;
    for (const SimStep& step : tx.steps) {
      if (step.kind == SimStep::Kind::kRead) {
        ops.push_back({false, step.entity});
      } else if (step.kind == SimStep::Kind::kWrite) {
        ops.push_back({true, step.entity});
      }
    }
    out.push_back(std::move(ops));
  }
  return out;
}

ProtocolSetup ProtocolSetupOf(const SimWorkload& workload) {
  ProtocolSetup setup;
  setup.objects = workload.objects;
  std::vector<std::vector<std::pair<bool, EntityId>>> planned =
      PlannedOpsOf(workload);
  for (size_t i = 0; i < planned.size(); ++i) {
    std::vector<PlannedOp>& ops = setup.planned_ops[static_cast<int>(i)];
    for (const auto& [is_write, entity] : planned[i]) {
      ops.push_back(PlannedOp{is_write, entity});
    }
  }
  return setup;
}

namespace {

/// The per-run engine. Owns the event queue and per-transaction runtime
/// state; the controller and version store are shared with the caller.
class Runner {
 public:
  Runner(const SimWorkload& workload, const SimConfig& config,
         ProtocolMetrics* metrics, VersionStore* store,
         ConcurrencyController* controller)
      : workload_(workload),
        config_(config),
        metrics_(metrics),
        store_(store),
        controller_(controller) {
    runtimes_.resize(workload.txs.size());
    result_.tx.resize(workload.txs.size());
  }

  SimResult Run() {
    // Register everything up front: the protocol needs to know the sibling
    // set and the partial order during validation.
    for (size_t i = 0; i < workload_.txs.size(); ++i) {
      const SimTx& tx = workload_.txs[i];
      TxProfile profile;
      profile.name = tx.name;
      profile.input = tx.input;
      profile.output = tx.output;
      profile.predecessors = tx.predecessors;
      controller_->Register(static_cast<int>(i), profile);
      runtimes_[i].local.assign(workload_.initial.size(), 0);
      runtimes_[i].known.assign(workload_.initial.size(), false);
    }
    for (size_t i = 0; i < workload_.txs.size(); ++i) {
      int tx = static_cast<int>(i);
      Schedule(workload_.txs[i].arrival, [this, tx] { TryBegin(tx, 0); });
    }

    while (!events_.empty()) {
      Event event = events_.top();
      events_.pop();
      NONSERIAL_CHECK_GE(event.time, now_);
      now_ = event.time;
      if (now_ > config_.max_time) break;
      event.fn();
      DrainSignals();
    }

    result_.history = BuildHistory();
    result_.final_state = store_->LatestCommittedSnapshot();
    result_.all_committed = true;
    for (size_t i = 0; i < runtimes_.size(); ++i) {
      TxOutcome& outcome = result_.tx[i];
      result_.total_aborts += outcome.aborts;
      result_.total_blocked += outcome.blocked_time;
      result_.total_wasted_ops += outcome.wasted_ops;
      if (outcome.committed) {
        ++result_.committed_count;
        result_.makespan = std::max(result_.makespan, outcome.commit_time);
      } else {
        result_.all_committed = false;
      }
    }
    return std::move(result_);
  }

 private:
  /// Assembles the classical-schedule view: operations of committed
  /// attempts in grant order, with commit positions and a strict commit
  /// sequence.
  EmittedHistory BuildHistory() const {
    EmittedHistory out;
    // Final committed attempt per transaction.
    std::vector<int> committed_gen(runtimes_.size(), -1);
    for (const HistoryEvent& event : history_log_) {
      if (event.is_commit) committed_gen[event.tx] = event.gen;
    }
    for (EntityId e = 0;
         e < static_cast<EntityId>(workload_.initial.size()); ++e) {
      out.schedule.InternEntity(StrCat("x", e));
    }
    out.commits.position.assign(workload_.txs.size(), 0);
    out.commits.sequence.assign(workload_.txs.size(),
                                static_cast<int>(workload_.txs.size()));
    int ops_so_far = 0;
    int commit_seq = 0;
    for (const HistoryEvent& event : history_log_) {
      if (committed_gen[event.tx] != event.gen) continue;  // Aborted work.
      if (event.is_commit) {
        out.commits.position[event.tx] = ops_so_far;
        out.commits.sequence[event.tx] = commit_seq++;
        out.committed.push_back(event.tx);
      } else {
        out.schedule.Append(event.tx, event.kind, event.entity);
        ++ops_so_far;
      }
    }
    // Uncommitted transactions contribute no ops; park their commit points
    // at the end so the shape stays valid.
    for (size_t tx = 0; tx < workload_.txs.size(); ++tx) {
      if (committed_gen[tx] < 0) out.commits.position[tx] = ops_so_far;
    }
    return out;
  }

  struct Event {
    SimTime time;
    int64_t seq;
    std::function<void()> fn;

    bool operator>(const Event& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };

  enum class St {
    kPending,    ///< Not yet begun (awaiting arrival or restart).
    kRunning,    ///< Executing steps.
    kBlocked,    ///< Parked; resumes via controller wakeup.
    kCommitted,
    kGivenUp
  };

  enum class Retry { kBegin, kStep, kCommit };

  struct TxRuntime {
    St st = St::kPending;
    Retry retry = Retry::kBegin;
    int next_step = 0;
    int attempt = 0;
    int restarts = 0;
    int ops_this_attempt = 0;
    SimTime blocked_since = -1;
    // Phase boundaries of the current attempt, in simulated ticks (-1 =
    // phase not entered yet). Feed the span histograms of the sink.
    SimTime attempt_start = -1;
    SimTime exec_start = -1;
    SimTime commit_start = -1;
    SimTime commit_blocked = 0;
    ValueVector local;
    std::vector<bool> known;
  };

  void Schedule(SimTime time, std::function<void()> fn) {
    events_.push(Event{std::max(time, now_), next_seq_++, std::move(fn)});
  }

  void TryBegin(int tx, int gen) {
    TxRuntime& rt = runtimes_[tx];
    // Only one Begin per attempt: stale events (superseded by an abort) and
    // duplicate wakeups are dropped.
    if (rt.attempt != gen || rt.st != St::kPending) return;
    if (rt.attempt_start < 0) rt.attempt_start = now_;
    switch (controller_->Begin(tx)) {
      case ReqResult::kGranted: {
        rt.st = St::kRunning;
        if (result_.tx[tx].begin_time < 0) result_.tx[tx].begin_time = now_;
        metrics_->span_validate.Record(now_ - rt.attempt_start);
        rt.exec_start = now_;
        int gen = rt.attempt;
        Schedule(now_, [this, tx, gen] { Advance(tx, gen); });
        break;
      }
      case ReqResult::kBlocked:
        Block(tx, Retry::kBegin);
        break;
      case ReqResult::kAborted:
        HandleAbort(tx);
        break;
    }
  }

  void Advance(int tx, int gen) {
    TxRuntime& rt = runtimes_[tx];
    if (rt.attempt != gen || rt.st != St::kRunning) return;
    const SimTx& script = workload_.txs[tx];
    if (rt.next_step >= static_cast<int>(script.steps.size())) {
      TryCommit(tx);
      return;
    }
    const SimStep& step = script.steps[rt.next_step];
    switch (step.kind) {
      case SimStep::Kind::kThink: {
        ++rt.next_step;
        Schedule(now_ + step.duration, [this, tx, gen] { Advance(tx, gen); });
        return;
      }
      case SimStep::Kind::kRead: {
        Value value = 0;
        switch (controller_->Read(tx, step.entity, &value)) {
          case ReqResult::kGranted: {
            rt.local[step.entity] = value;
            rt.known[step.entity] = true;
            ++rt.ops_this_attempt;
            ++rt.next_step;
            history_log_.push_back(
                {false, tx, OpKind::kRead, step.entity, gen});
            Schedule(now_ + config_.read_duration + script.think_between_ops,
                     [this, tx, gen] { Advance(tx, gen); });
            return;
          }
          case ReqResult::kBlocked:
            Block(tx, Retry::kStep);
            return;
          case ReqResult::kAborted:
            HandleAbort(tx);
            return;
        }
        return;
      }
      case SimStep::Kind::kWrite: {
        std::set<EntityId> operands;
        step.write_expr.CollectReads(&operands);
        for (EntityId operand : operands) {
          NONSERIAL_CHECK(rt.known[operand])
              << "transaction '" << script.name << "' writes entity "
              << step.entity << " from entity " << operand
              << " it has not read";
        }
        Value value = step.write_expr.Eval(rt.local);
        switch (controller_->Write(tx, step.entity, value)) {
          case ReqResult::kGranted: {
            rt.local[step.entity] = value;
            rt.known[step.entity] = true;
            ++rt.ops_this_attempt;
            ++rt.next_step;
            history_log_.push_back(
                {false, tx, OpKind::kWrite, step.entity, gen});
            EntityId entity = step.entity;
            Schedule(now_ + config_.write_duration, [this, tx, gen, entity] {
              TxRuntime& inner = runtimes_[tx];
              if (inner.attempt != gen) return;  // Attempt was aborted.
              controller_->WriteDone(tx, entity);
            });
            Schedule(now_ + config_.write_duration +
                         script.think_between_ops,
                     [this, tx, gen] { Advance(tx, gen); });
            return;
          }
          case ReqResult::kBlocked:
            Block(tx, Retry::kStep);
            return;
          case ReqResult::kAborted:
            HandleAbort(tx);
            return;
        }
        return;
      }
    }
  }

  void TryCommit(int tx) {
    TxRuntime& rt = runtimes_[tx];
    if (rt.commit_start < 0) {
      rt.commit_start = now_;
      if (rt.exec_start >= 0) {
        metrics_->span_execute.Record(now_ - rt.exec_start);
      }
    }
    switch (controller_->Commit(tx)) {
      case ReqResult::kGranted: {
        rt.st = St::kCommitted;
        result_.tx[tx].committed = true;
        result_.tx[tx].commit_time = now_;
        metrics_->span_terminate.Record(now_ - rt.commit_start);
        metrics_->span_commit_wait.Record(rt.commit_blocked);
        history_log_.push_back(
            {true, tx, OpKind::kRead, kInvalidEntity, rt.attempt});
        break;
      }
      case ReqResult::kBlocked:
        Block(tx, Retry::kCommit);
        break;
      case ReqResult::kAborted:
        HandleAbort(tx);
        break;
    }
  }

  void Block(int tx, Retry retry) {
    TxRuntime& rt = runtimes_[tx];
    rt.st = St::kBlocked;
    rt.retry = retry;
    rt.blocked_since = now_;
  }

  void OnWake(int tx) {
    TxRuntime& rt = runtimes_[tx];
    if (rt.st != St::kBlocked) return;
    if (rt.retry == Retry::kCommit) {
      rt.commit_blocked += now_ - rt.blocked_since;
    }
    result_.tx[tx].blocked_time += now_ - rt.blocked_since;
    rt.st = St::kRunning;
    int gen = rt.attempt;
    switch (rt.retry) {
      case Retry::kBegin:
        rt.st = St::kPending;
        Schedule(now_, [this, tx, gen] { TryBegin(tx, gen); });
        break;
      case Retry::kStep:
        Schedule(now_, [this, tx, gen] { Advance(tx, gen); });
        break;
      case Retry::kCommit:
        Schedule(now_, [this, tx, gen] {
          TxRuntime& inner = runtimes_[tx];
          if (inner.attempt != gen || inner.st != St::kRunning) return;
          TryCommit(tx);
        });
        break;
    }
  }

  void HandleAbort(int tx) {
    TxRuntime& rt = runtimes_[tx];
    if (rt.st == St::kCommitted || rt.st == St::kGivenUp) return;
    TxOutcome& outcome = result_.tx[tx];
    if (rt.st == St::kBlocked) {
      outcome.blocked_time += now_ - rt.blocked_since;
    }
    ++outcome.aborts;
    outcome.wasted_ops += rt.ops_this_attempt;
    controller_->Abort(tx);
    ++rt.attempt;
    ++rt.restarts;
    rt.next_step = 0;
    rt.ops_this_attempt = 0;
    rt.attempt_start = -1;
    rt.exec_start = -1;
    rt.commit_start = -1;
    rt.commit_blocked = 0;
    rt.known.assign(rt.known.size(), false);
    if (rt.restarts > config_.max_restarts) {
      rt.st = St::kGivenUp;
      return;
    }
    rt.st = St::kPending;
    // Deterministic per-transaction jitter plus linear growth: repeated
    // mutual aborts (e.g. MVTO read/write livelock between long
    // transactions) desynchronize and thin out until someone finishes.
    SimTime jitter = 1 + ((tx * 7 + rt.restarts * 13) % 8);
    SimTime growth = std::min(1 + rt.restarts, 128);
    int gen = rt.attempt;
    Schedule(now_ + config_.restart_backoff * jitter * growth,
             [this, tx, gen] { TryBegin(tx, gen); });
  }

  void DrainSignals() {
    for (;;) {
      std::vector<int> forced = controller_->TakeForcedAborts();
      std::vector<int> wakeups = controller_->TakeWakeups();
      if (forced.empty() && wakeups.empty()) return;
      for (int tx : forced) HandleAbort(tx);
      for (int tx : wakeups) OnWake(tx);
    }
  }

  struct HistoryEvent {
    bool is_commit = false;
    int tx = 0;
    OpKind kind = OpKind::kRead;
    EntityId entity = kInvalidEntity;
    int gen = 0;
  };

  const SimWorkload& workload_;
  const SimConfig& config_;
  ProtocolMetrics* metrics_;
  VersionStore* store_;
  ConcurrencyController* controller_;
  std::vector<HistoryEvent> history_log_;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  int64_t next_seq_ = 0;
  SimTime now_ = 0;
  std::vector<TxRuntime> runtimes_;
  SimResult result_;
};

}  // namespace

SimResult Simulator::Run(
    const SimWorkload& workload, const ControllerFactory& factory,
    std::shared_ptr<VersionStore>* store_out,
    std::shared_ptr<ConcurrencyController>* controller_out) const {
  auto store = std::make_shared<VersionStore>(workload.initial);
  std::shared_ptr<ConcurrencyController> controller = factory(store.get());
  Runner runner(workload, config_, metrics(), store.get(), controller.get());
  SimResult result = runner.Run();
  if (store_out != nullptr) *store_out = store;
  if (controller_out != nullptr) *controller_out = controller;
  return result;
}

}  // namespace nonserial
