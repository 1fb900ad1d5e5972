#include "scenario/runner.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"
#include "engine/engine.h"
#include "protocol/registry.h"
#include "storage/wal.h"

namespace nonserial {
namespace scenario {
namespace {

/// The registry setup a spec supplies, keyed by transaction id == session
/// index: constraint objects, each session's planned operations, and one
/// Nested-CEP group per session (its predicates and `after` edges).
ProtocolSetup SetupFor(const ScenarioSpec& spec) {
  ProtocolSetup setup;
  setup.objects = spec.Objects();
  for (size_t s = 0; s < spec.sessions.size(); ++s) {
    const SessionSpec& session = spec.sessions[s];
    std::vector<PlannedOp>& ops = setup.planned_ops[static_cast<int>(s)];
    for (const Step& step : session.steps) {
      if (step.kind == Step::Kind::kRead || step.kind == Step::Kind::kWrite) {
        ops.push_back(PlannedOp{step.kind == Step::Kind::kWrite, step.entity});
      }
    }
    NestedGroup group;
    group.name = session.name;
    group.input = session.input;
    group.output = session.output;
    group.predecessors = session.predecessors;
    setup.nested.groups.push_back(std::move(group));
    setup.nested.group_of_tx.push_back(static_cast<int>(s));
  }
  return setup;
}

/// The TxSpec a session registers under. Nested-CEP encodes the partial
/// order at the group level (SetupFor copied the `after` edges into the
/// group predecessors), so the flat profile must not repeat them.
engine::TxSpec ProfileFor(const ScenarioSpec& spec, int s, ProtocolKind kind) {
  const SessionSpec& session = spec.sessions[s];
  engine::TxSpec tx;
  tx.name = session.name;
  tx.input = session.input;
  tx.output = session.output;
  if (kind != ProtocolKind::kNestedCep) tx.predecessors = session.predecessors;
  return tx;
}

/// One recorded granted data operation (history assembly).
struct HistOp {
  int session = 0;
  OpKind kind = OpKind::kRead;
  EntityId entity = kInvalidEntity;
};

/// The deterministic single-threaded step scheduler. Permutation entries
/// are injected in order; each injection authorizes one more step of its
/// session, then a progress loop (Pump) runs every session as far as its
/// authorized, unblocked steps allow — retrying blocked requests after
/// every state change, exactly as the documented driver-client idiom for
/// the controllers prescribes (see sim/simulator.cc).
class StepDriver {
 public:
  StepDriver(const ScenarioSpec& spec, std::string protocol, bool verbose,
             WriteAheadLog* wal)
      : spec_(spec), protocol_(std::move(protocol)), verbose_(verbose) {
    StatusOr<ProtocolKind> kind = ParseProtocolKind(protocol_);
    init_status_ = kind.status();
    if (!init_status_.ok()) return;
    EngineOptions options;
    options.initial = spec_.initial;
    options.wal = wal;
    options.controller_factory = MakeControllerFactory(*kind, SetupFor(spec_));
    engine_ = std::make_unique<Engine>(std::move(options));
    cc_ = engine_->controller();
    sessions_.resize(spec_.sessions.size());
    for (size_t s = 0; s < spec_.sessions.size(); ++s) {
      Sess& sess = sessions_[s];
      const std::vector<Step>& steps = spec_.sessions[s].steps;
      // Programs without an explicit begin step get an implicit one,
      // authorized together with the first step.
      sess.implicit_begin = steps[0].kind != Step::Kind::kBegin;
      cc_->Register(static_cast<int>(s),
                    ProfileFor(spec_, static_cast<int>(s), *kind));
      sess.view = spec_.initial;
    }
  }

  const Status& init_status() const { return init_status_; }
  Engine* engine() { return engine_.get(); }

  /// Authorizes one more step of ref.session and pumps to fixpoint.
  void Inject(const StepRef& ref) {
    Sess& sess = sessions_[ref.session];
    sess.authorized = ref.step + 1 + (sess.implicit_begin ? 1 : 0);
    Pump();
  }

  /// End of the interleaving: final pump, then every unfinished session is
  /// marked blocked and rolled back (releasing its locks/holds).
  void Finish() {
    Pump();
    for (size_t s = 0; s < sessions_.size(); ++s) {
      Sess& sess = sessions_[s];
      if (sess.terminal) continue;
      sess.verdict = Verdict::kBlocked;
      sess.terminal = true;
      Trace(StrCat(spec_.sessions[s].name, ": still blocked at scenario end",
                   " — rolled back"));
      cc_->Abort(static_cast<int>(s));
      DrainSignals();
    }
  }

  std::vector<int> CommittedSessions() const {
    std::vector<int> committed;
    for (size_t s = 0; s < sessions_.size(); ++s) {
      if (sessions_[s].terminal && sessions_[s].verdict == Verdict::kCommit) {
        committed.push_back(static_cast<int>(s));
      }
    }
    return committed;
  }

  ScenarioRunResult TakeResult() {
    ScenarioRunResult result;
    result.protocol = protocol_;
    for (const Sess& sess : sessions_) result.verdicts.push_back(sess.verdict);
    result.final_state = engine_->store()->LatestCommittedSnapshot();
    result.constraint_ok = spec_.constraint.Eval(result.final_state);
    for (const std::string& name : spec_.entity_names) {
      result.committed.InternEntity(name);
    }
    ObjectSetList objects = spec_.Objects();
    IncrementalCpcChecker checker(objects);
    for (const HistOp& op : history_) {
      if (sessions_[op.session].verdict != Verdict::kCommit) continue;
      result.committed.Append(op.session, op.kind, op.entity);
      checker.AddOp(op.session, op.kind, op.entity);
    }
    result.incremental_cpc = checker.IsCpc();
    result.classes =
        ClassifyAll(result.committed, objects, &result.classes_exact);
    result.log = std::move(log_);
    return result;
  }

 private:
  struct Sess {
    bool implicit_begin = false;
    /// Micro-op cursor: 0 is the (implicit or explicit) begin; step i of
    /// the program is micro-op i (+1 with an implicit begin).
    int cursor = 0;
    int authorized = 0;
    bool begun = false;
    bool terminal = false;
    Verdict verdict = Verdict::kBlocked;
    ValueVector view;  ///< Initial state overlaid with own reads/writes.
  };

  void Trace(std::string line) {
    if (verbose_) log_.push_back(std::move(line));
  }

  /// Forced aborts are correctness signals: the controller has decided the
  /// transaction dies (Figure 4 re-evaluation, deadlock victims,
  /// cascades). Wakeups are drained and dropped — Pump retries every
  /// blocked session eagerly anyway.
  void DrainSignals() {
    for (int tx : cc_->TakeForcedAborts()) {
      Sess& sess = sessions_[tx];
      if (sess.terminal) continue;
      Trace(StrCat(spec_.sessions[tx].name, ": forced abort"));
      cc_->Abort(tx);
      sess.verdict = Verdict::kAbort;
      sess.terminal = true;
    }
    (void)cc_->TakeWakeups();
  }

  /// The step of session s that micro-op `cursor` maps to (-1 = the
  /// implicit begin).
  int StepIndex(const Sess& sess) const {
    return sess.cursor - (sess.implicit_begin ? 1 : 0);
  }

  /// Attempts the current micro-op of session s. Returns true when the
  /// session made progress (granted or reached a terminal state).
  bool TryStep(int s) {
    Sess& sess = sessions_[s];
    if (sess.terminal || sess.cursor >= sess.authorized) return false;
    const SessionSpec& program = spec_.sessions[s];
    int step_index = StepIndex(sess);
    ReqResult r = ReqResult::kGranted;
    if (step_index < 0) {
      r = cc_->Begin(s);
      if (r == ReqResult::kGranted) {
        sess.begun = true;
        Trace(StrCat(program.name, ": begin (implicit)"));
      }
    } else {
      const Step& step = program.steps[step_index];
      switch (step.kind) {
        case Step::Kind::kBegin:
          r = cc_->Begin(s);
          if (r == ReqResult::kGranted) {
            sess.begun = true;
            Trace(StrCat(program.name, ": ", step.name, " begin"));
          }
          break;
        case Step::Kind::kRead: {
          Value value = 0;
          r = cc_->Read(s, step.entity, &value);
          if (r == ReqResult::kGranted) {
            sess.view[step.entity] = value;
            history_.push_back(HistOp{s, OpKind::kRead, step.entity});
            Trace(StrCat(program.name, ": ", step.name, " read ",
                         spec_.entity_names[step.entity], " = ", value));
          }
          break;
        }
        case Step::Kind::kWrite: {
          Value value = step.write_expr.Eval(sess.view);
          r = cc_->Write(s, step.entity, value);
          if (r == ReqResult::kGranted) {
            cc_->WriteDone(s, step.entity);
            sess.view[step.entity] = value;
            history_.push_back(HistOp{s, OpKind::kWrite, step.entity});
            Trace(StrCat(program.name, ": ", step.name, " write ",
                         spec_.entity_names[step.entity], " = ", value));
          }
          break;
        }
        case Step::Kind::kCommit:
          r = cc_->Commit(s);
          if (r == ReqResult::kGranted) {
            sess.verdict = Verdict::kCommit;
            sess.terminal = true;
            Trace(StrCat(program.name, ": ", step.name, " commit"));
          }
          break;
        case Step::Kind::kAbort:
          cc_->Abort(s);
          sess.verdict = Verdict::kAbort;
          sess.terminal = true;
          Trace(StrCat(program.name, ": ", step.name, " abort (voluntary)"));
          DrainSignals();
          return true;
      }
    }
    DrainSignals();
    if (sess.terminal) return true;  // a forced abort raced the grant
    if (r == ReqResult::kGranted) {
      ++sess.cursor;
      return true;
    }
    if (r == ReqResult::kAborted) {
      Trace(StrCat(program.name, ": aborted by the protocol"));
      cc_->Abort(s);
      sess.verdict = Verdict::kAbort;
      sess.terminal = true;
      DrainSignals();
      return true;
    }
    return false;  // kBlocked: retried on the next pump pass
  }

  /// Runs every session as far as it can go, to fixpoint. Each pass makes
  /// at least one grant or terminates a session, so the loop is bounded by
  /// the total number of micro-ops plus aborts.
  void Pump() {
    bool progress = true;
    while (progress) {
      progress = false;
      DrainSignals();
      for (size_t s = 0; s < sessions_.size(); ++s) {
        while (TryStep(static_cast<int>(s))) progress = true;
      }
    }
  }

  const ScenarioSpec& spec_;
  std::string protocol_;
  bool verbose_;
  Status init_status_ = Status::OK();
  std::unique_ptr<Engine> engine_;
  ConcurrencyController* cc_ = nullptr;
  std::vector<Sess> sessions_;
  std::vector<HistOp> history_;
  std::vector<std::string> log_;
};

}  // namespace

StatusOr<ScenarioRunResult> RunPermutation(const ScenarioSpec& spec,
                                           const std::vector<StepRef>& order,
                                           const std::string& protocol,
                                           const RunnerOptions& options) {
  StepDriver driver(spec, protocol, options.verbose, /*wal=*/nullptr);
  if (!driver.init_status().ok()) return driver.init_status();
  for (const StepRef& ref : order) driver.Inject(ref);
  driver.Finish();
  return driver.TakeResult();
}

StatusOr<ScenarioRunResult> RunConcurrentViaSessions(
    const ScenarioSpec& spec, const std::string& protocol,
    int64_t max_blocked_us) {
  StatusOr<ProtocolKind> kind = ParseProtocolKind(protocol);
  if (!kind.ok()) return kind.status();
  EngineOptions engine_options;
  engine_options.initial = spec.initial;
  engine_options.max_blocked_us = max_blocked_us;
  engine_options.controller_factory =
      MakeControllerFactory(*kind, SetupFor(spec));
  Engine engine(std::move(engine_options));
  ScopedEngineShutdown teardown(&engine);

  const int n = static_cast<int>(spec.sessions.size());
  std::vector<Verdict> verdicts(n, Verdict::kAbort);
  std::vector<HistOp> history;
  std::mutex history_mu;
  // Sessions open in session order, so runtime transaction ids equal
  // session indices (predecessor edges and the Nested-CEP group map are
  // expressed in session indices). Begin issuance is ticketed in the same
  // order; everything after Begin returns runs under free OS scheduling.
  std::vector<std::unique_ptr<Session>> sessions;
  for (int s = 0; s < n; ++s) sessions.push_back(engine.OpenSession());
  std::mutex turn_mu;
  std::condition_variable turn_cv;
  int turn = 0;

  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int s = 0; s < n; ++s) {
    threads.emplace_back([&, s] {
      std::unique_ptr<Session> session = std::move(sessions[s]);
      {
        std::unique_lock<std::mutex> lock(turn_mu);
        turn_cv.wait(lock, [&] { return turn == s; });
      }
      Status begun = session->Begin(ProfileFor(spec, s, *kind));
      {
        std::lock_guard<std::mutex> lock(turn_mu);
        ++turn;
      }
      turn_cv.notify_all();
      if (!begun.ok()) return;  // verdict stays kAbort
      ValueVector view = spec.initial;
      for (const Step& step : spec.sessions[s].steps) {
        switch (step.kind) {
          case Step::Kind::kBegin:
            continue;  // Session::Begin already ran
          case Step::Kind::kRead: {
            StatusOr<Value> value = session->Read(step.entity);
            if (!value.ok()) return;
            view[step.entity] = *value;
            std::lock_guard<std::mutex> lock(history_mu);
            history.push_back(HistOp{s, OpKind::kRead, step.entity});
            continue;
          }
          case Step::Kind::kWrite: {
            Value value = step.write_expr.Eval(view);
            if (!session->Write(step.entity, value).ok()) return;
            view[step.entity] = value;
            std::lock_guard<std::mutex> lock(history_mu);
            history.push_back(HistOp{s, OpKind::kWrite, step.entity});
            continue;
          }
          case Step::Kind::kCommit:
            if (session->Commit().ok()) verdicts[s] = Verdict::kCommit;
            return;
          case Step::Kind::kAbort:
            session->Abort();
            verdicts[s] = Verdict::kAbort;
            return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ScenarioRunResult result;
  result.protocol = protocol;
  result.verdicts = verdicts;
  result.final_state = engine.store()->LatestCommittedSnapshot();
  result.constraint_ok = spec.constraint.Eval(result.final_state);
  for (const std::string& name : spec.entity_names) {
    result.committed.InternEntity(name);
  }
  ObjectSetList objects = spec.Objects();
  IncrementalCpcChecker checker(objects);
  for (const HistOp& op : history) {
    if (verdicts[op.session] != Verdict::kCommit) continue;
    result.committed.Append(op.session, op.kind, op.entity);
    checker.AddOp(op.session, op.kind, op.entity);
  }
  result.incremental_cpc = checker.IsCpc();
  result.classes =
      ClassifyAll(result.committed, objects, &result.classes_exact);
  return result;
}

bool CheckExpectation(const ScenarioSpec& spec, const Expectation& expect,
                      const ScenarioRunResult& result,
                      std::vector<std::string>* failures) {
  size_t before = failures->size();
  for (size_t s = 0; s < spec.sessions.size(); ++s) {
    if (expect.verdicts[s] != result.verdicts[s]) {
      failures->push_back(StrCat(
          spec.sessions[s].name, ": expected ",
          VerdictName(expect.verdicts[s]), ", got ",
          VerdictName(result.verdicts[s])));
    }
  }
  for (const ClassAssertion& assertion : expect.classes) {
    bool actual = false;
    bool exponential = false;
    switch (assertion.cls) {
      case ClassAssertion::Cls::kCsr:
        actual = result.classes.csr;
        break;
      case ClassAssertion::Cls::kSr:
        actual = result.classes.vsr;
        exponential = true;
        break;
      case ClassAssertion::Cls::kCpc:
        actual = result.classes.cpc;
        break;
      case ClassAssertion::Cls::kPc:
        actual = result.classes.pc;
        exponential = true;
        break;
    }
    if (exponential && !result.classes_exact) {
      failures->push_back(StrCat(
          "classes ", assertion.expected ? "+" : "-",
          ClassAssertionName(assertion.cls),
          ": classification was not exact (too many transactions)"));
      continue;
    }
    if (actual != assertion.expected) {
      failures->push_back(StrCat(
          "classes: expected ", assertion.expected ? "+" : "-",
          ClassAssertionName(assertion.cls), ", history classified as [",
          result.classes.ToString(), "]"));
    }
  }
  for (const auto& [entity, value] : expect.final_state) {
    if (result.final_state[entity] != value) {
      failures->push_back(StrCat(
          "final ", spec.entity_names[entity], ": expected ", value, ", got ",
          result.final_state[entity]));
    }
  }
  return failures->size() == before;
}

std::string FormatExpectation(const ScenarioSpec& spec,
                              const ScenarioRunResult& result) {
  std::string out = StrCat("expect \"", result.protocol, "\" {");
  for (size_t s = 0; s < spec.sessions.size(); ++s) {
    out += StrCat(" ", spec.sessions[s].name, " ",
                  VerdictName(result.verdicts[s]));
  }
  if (result.classes_exact) {
    out += StrCat("  classes ", result.classes.csr ? "+" : "-", "csr ",
                  result.classes.vsr ? "+" : "-", "sr ",
                  result.classes.pc ? "+" : "-", "pc ",
                  result.classes.cpc ? "+" : "-", "cpc");
  }
  out += "  final";
  for (size_t e = 0; e < spec.entity_names.size(); ++e) {
    out += StrCat(" ", spec.entity_names[e], " = ", result.final_state[e]);
  }
  out += " }";
  return out;
}

StatusOr<std::vector<std::string>> RunChaosSweep(
    const ScenarioSpec& spec, const std::vector<StepRef>& order,
    uint64_t seed, int crash_point) {
  std::vector<std::string> failures;
  if (crash_point > static_cast<int>(order.size())) {
    return Status::InvalidArgument(
        StrCat("crash point ", crash_point, " out of range; interleaving has ",
               order.size(), " steps (valid: 0..", order.size(), ")"));
  }
  // CEP is the WAL-wired protocol (commit cuts a durable record through the
  // store); chaos replays it at every crash point of the interleaving.
  for (size_t k = 0; k <= order.size(); ++k) {
    if (crash_point >= 0 && k != static_cast<size_t>(crash_point)) continue;
    // Deterministic firing decisions for any armed failpoints, re-seeded
    // per crash point so each replays standalone.
    FailpointRegistry::Global().Seed(seed + k);
    WriteAheadLog wal(spec.initial);
    StepDriver driver(spec, "CEP", /*verbose=*/false, &wal);
    if (!driver.init_status().ok()) return driver.init_status();
    for (size_t i = 0; i < k; ++i) driver.Inject(order[i]);
    std::vector<int> committed_before = driver.CommittedSessions();
    ValueVector snapshot_before =
        driver.engine()->store()->LatestCommittedSnapshot();
    RecoveryResult rec = driver.engine()->CrashRecover(RecoveryOptions{});
    auto fail = [&](const std::string& what) {
      failures.push_back(StrCat("crash point ", k, ": ", what));
    };
    if (!rec.status.ok()) {
      fail(StrCat("recovery failed: ", rec.status.message()));
      continue;
    }
    ValueVector recovered =
        driver.engine()->store()->LatestCommittedSnapshot();
    if (recovered != snapshot_before) {
      fail("recovered snapshot differs from the pre-crash committed state");
    }
    std::vector<int> recovered_committed;
    for (const RecoveredTx& tx : rec.committed) {
      recovered_committed.push_back(tx.tx);
    }
    std::sort(recovered_committed.begin(), recovered_committed.end());
    if (recovered_committed != committed_before) {
      fail("recovered committed-transaction set differs from pre-crash");
    }
  }
  return failures;
}

namespace {

Json VerdictsJson(const ScenarioSpec& spec, const ScenarioRunResult& result) {
  Json verdicts = Json::Object();
  for (size_t s = 0; s < spec.sessions.size(); ++s) {
    verdicts[spec.sessions[s].name] = VerdictName(result.verdicts[s]);
  }
  return verdicts;
}

Json FinalStateJson(const ScenarioSpec& spec,
                    const ScenarioRunResult& result) {
  Json state = Json::Object();
  for (size_t e = 0; e < spec.entity_names.size(); ++e) {
    state[spec.entity_names[e]] = result.final_state[e];
  }
  return state;
}

std::string PermutationSteps(const ScenarioSpec& spec,
                             const Permutation& perm) {
  std::vector<std::string> names;
  names.reserve(perm.order.size());
  for (const StepRef& ref : perm.order) names.push_back(spec.StepAt(ref).name);
  return Join(names, " ");
}

}  // namespace

StatusOr<SpecResult> RunSpec(const ScenarioSpec& spec,
                             const SuiteOptions& options) {
  SpecResult out;
  out.name = spec.name;
  std::vector<std::string> protocols = options.protocols;
  if (protocols.empty()) {
    for (ProtocolKind kind : AllProtocolKinds()) {
      protocols.push_back(ProtocolKindName(kind));
    }
  }
  for (const std::string& protocol : protocols) {
    StatusOr<ProtocolKind> kind = ParseProtocolKind(protocol);
    if (!kind.ok()) return kind.status();
  }
  auto selected = [&protocols](const std::string& name) {
    return std::find(protocols.begin(), protocols.end(), name) !=
           protocols.end();
  };

  out.row["name"] = spec.name;
  out.row["class"] = spec.figure2_class.empty() ? "unannotated"
                                                : spec.figure2_class;
  out.row["sessions"] = static_cast<int64_t>(spec.sessions.size());
  out.row["steps"] = static_cast<int64_t>(spec.TotalSteps());

  // Expect blocks referencing unregistered protocols are authoring bugs.
  for (size_t pi = 0; pi < spec.permutations.size(); ++pi) {
    for (const Expectation& expect : spec.permutations[pi].expectations) {
      if (!ParseProtocolKind(expect.protocol).ok()) {
        out.failures.push_back(StrCat(spec.name, " permutation #", pi,
                                      ": expect block names unknown protocol "
                                      "'", expect.protocol, "'"));
      }
    }
  }

  Json perm_rows = Json::Array();
  for (size_t pi = 0; pi < spec.permutations.size(); ++pi) {
    const Permutation& perm = spec.permutations[pi];
    Json perm_row = Json::Object();
    perm_row["steps"] = PermutationSteps(spec, perm);
    Json by_protocol = Json::Object();
    for (const std::string& protocol : protocols) {
      StatusOr<ScenarioRunResult> run =
          RunPermutation(spec, perm.order, protocol,
                         RunnerOptions{options.verbose});
      if (!run.ok()) return run.status();
      ++out.explicit_runs;
      auto context = [&](const std::string& line) {
        return StrCat(spec.name, " permutation #", pi, " [", protocol, "] ",
                      line);
      };
      if (run->incremental_cpc != run->classes.cpc) {
        out.failures.push_back(context(
            "incremental CPC checker disagrees with the batch recognizer"));
      }
      for (const Expectation& expect : perm.expectations) {
        if (expect.protocol != protocol) continue;
        std::vector<std::string> mismatches;
        CheckExpectation(spec, expect, *run, &mismatches);
        for (const std::string& line : mismatches) {
          out.failures.push_back(context(line));
        }
      }
      if (options.print_expect) {
        out.printed.push_back(StrCat("permutation #", pi, " (",
                                     PermutationSteps(spec, perm), "):\n  ",
                                     FormatExpectation(spec, *run)));
      }
      if (options.verbose) {
        for (const std::string& line : run->log) {
          out.printed.push_back(StrCat("  [", protocol, "] ", line));
        }
      }
      Json proto_row = Json::Object();
      proto_row["verdicts"] = VerdictsJson(spec, *run);
      proto_row["final"] = FinalStateJson(spec, *run);
      proto_row["classes"] = run->classes.ToString();
      proto_row["classes_exact"] = run->classes_exact;
      proto_row["cpc"] = run->classes.cpc;
      proto_row["sr"] = run->classes.vsr;
      proto_row["constraint_ok"] = run->constraint_ok;
      by_protocol[protocol] = std::move(proto_row);
    }
    perm_row["protocols"] = std::move(by_protocol);
    perm_rows.Push(std::move(perm_row));
  }
  out.row["permutations"] = std::move(perm_rows);

  if (spec.all_permutations.enabled) {
    bool truncated = false;
    std::vector<std::vector<StepRef>> orders = EnumerateInterleavings(
        spec, spec.all_permutations.max_runs, &truncated);
    out.sweep_truncated = truncated;
    Json sweep = Json::Object();
    sweep["interleavings"] = static_cast<int64_t>(orders.size());
    // No silent caps: a truncated sweep says so in the report.
    sweep["truncated"] = truncated;
    Json sweep_protocols = Json::Object();
    for (const std::string& protocol : protocols) {
      int64_t all_committed = 0;
      int64_t cpc_count = 0;
      int64_t sr_count = 0;
      int64_t blocked_runs = 0;
      int64_t constraint_violations = 0;
      for (size_t oi = 0; oi < orders.size(); ++oi) {
        StatusOr<ScenarioRunResult> run =
            RunPermutation(spec, orders[oi], protocol, RunnerOptions{});
        if (!run.ok()) return run.status();
        ++out.sweep_runs;
        if (run->incremental_cpc != run->classes.cpc) {
          out.failures.push_back(
              StrCat(spec.name, " sweep #", oi, " [", protocol,
                     "] incremental CPC checker disagrees with the batch "
                     "recognizer"));
        }
        bool committed_all = true;
        bool any_blocked = false;
        for (Verdict v : run->verdicts) {
          committed_all = committed_all && v == Verdict::kCommit;
          any_blocked = any_blocked || v == Verdict::kBlocked;
        }
        if (committed_all) ++all_committed;
        if (any_blocked) ++blocked_runs;
        if (run->classes.cpc) ++cpc_count;
        if (run->classes_exact && run->classes.vsr) ++sr_count;
        if (committed_all && !run->constraint_ok) ++constraint_violations;
      }
      Json aggregate = Json::Object();
      aggregate["runs"] = static_cast<int64_t>(orders.size());
      aggregate["all_committed"] = all_committed;
      aggregate["blocked_runs"] = blocked_runs;
      aggregate["cpc_histories"] = cpc_count;
      aggregate["sr_histories"] = sr_count;
      aggregate["constraint_violations"] = constraint_violations;
      sweep_protocols[protocol] = std::move(aggregate);
    }
    sweep["protocols"] = std::move(sweep_protocols);
    out.row["sweep"] = std::move(sweep);
  }

  if (options.chaos && selected("CEP")) {
    for (size_t pi = 0; pi < spec.permutations.size(); ++pi) {
      int steps = static_cast<int>(spec.permutations[pi].order.size());
      // A pinned --crash-point past this permutation's last step is not an
      // error at suite level; the permutation simply has no such point.
      if (options.chaos_crash_point > steps) continue;
      StatusOr<std::vector<std::string>> chaos =
          RunChaosSweep(spec, spec.permutations[pi].order, options.chaos_seed,
                        options.chaos_crash_point);
      if (!chaos.ok()) return chaos.status();
      out.chaos_crash_points +=
          options.chaos_crash_point >= 0 ? 1 : steps + 1;
      for (const std::string& line : *chaos) {
        out.failures.push_back(
            StrCat(spec.name, " permutation #", pi, " [chaos] ", line));
      }
    }
    out.row["chaos_crash_points"] = out.chaos_crash_points;
  }

  out.row["explicit_runs"] = out.explicit_runs;
  out.row["sweep_runs"] = out.sweep_runs;
  Json failure_rows = Json::Array();
  for (const std::string& line : out.failures) failure_rows.Push(line);
  out.row["failures"] = std::move(failure_rows);
  out.row["ok"] = out.ok();
  return out;
}

}  // namespace scenario
}  // namespace nonserial
