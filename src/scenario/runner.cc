#include "scenario/runner.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/strings.h"
#include "engine/engine.h"
#include "protocol/registry.h"
#include "sim/scheduler.h"
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

/// True when the session's program has no begin step: it then runs an
/// implicit Begin first, authorized together with its first step.
bool ImplicitBegin(const ScenarioSpec& spec, int s) {
  return spec.sessions[s].steps[0].kind != Step::Kind::kBegin;
}

/// One step program per session, in session order, under the session's
/// spec with its transitive predecessors.
std::vector<StepProgram> ProgramsFor(const ScenarioSpec& spec,
                                     ProtocolKind kind) {
  std::vector<StepProgram> programs;
  for (size_t s = 0; s < spec.sessions.size(); ++s) {
    const SessionSpec& session = spec.sessions[s];
    StepProgram program;
    program.spec = {session.name, session.input, session.output,
                    session.predecessors};
    if (ImplicitBegin(spec, static_cast<int>(s))) {
      program.ops.push_back(ProgramOp{});
    }
    for (const Step& step : session.steps) {
      // Step::Kind lists the first five ProgramOp kinds, in order.
      static_assert(
          static_cast<int>(Step::Kind::kRead) ==
              static_cast<int>(ProgramOp::Kind::kRead) &&
          static_cast<int>(Step::Kind::kWrite) ==
              static_cast<int>(ProgramOp::Kind::kWrite) &&
          static_cast<int>(Step::Kind::kCommit) ==
              static_cast<int>(ProgramOp::Kind::kCommit) &&
          static_cast<int>(Step::Kind::kAbort) ==
              static_cast<int>(ProgramOp::Kind::kAbort));
      program.ops.push_back(
          ProgramOp{.kind = static_cast<ProgramOp::Kind>(step.kind),
                    .entity = step.entity,
                    .write_expr = step.write_expr});
    }
    programs.push_back(std::move(program));
  }
  AddAncestors(&programs);
  // Nested-CEP encodes the partial order at the group level (SetupFor
  // copied the `after` edges into the group predecessors), so its flat
  // specs carry none.
  if (kind == ProtocolKind::kNestedCep) {
    for (StepProgram& program : programs) program.spec.predecessors.clear();
  }
  return programs;
}

EngineOptions EngineFor(const ScenarioSpec& spec, ProtocolKind kind,
                        WriteAheadLog* wal) {
  EngineOptions options;
  options.initial = spec.initial;
  options.wal = wal;
  options.controller_factory = MakeControllerFactory(kind, SetupFor(spec));
  return options;
}

/// One interleaving in flight: a fresh engine hosting the protocol, and the
/// scheduler running one session per spec session, so tx id == session
/// index (predecessor edges and the Nested-CEP group map are expressed in
/// session indices). Permutation entries are injected in order; each
/// authorizes one more step of its session, then the scheduler runs every
/// session as far as its authorized, unblocked steps allow — retrying
/// blocked requests after every step of any session, and rolling a
/// forced-abort victim back at once.
class Interleaving {
 public:
  Interleaving(const ScenarioSpec& spec, ProtocolKind kind, WriteAheadLog* wal)
      : spec_(spec),
        engine_(EngineFor(spec, kind, wal)),
        scheduler_(&engine_, ProgramsFor(spec, kind)) {
    for (size_t s = 0; s < spec.sessions.size(); ++s) {
      scheduler_.Authorize(static_cast<int>(s), 0);
    }
  }

  void Inject(const StepRef& ref) {
    int op = ref.step + (ImplicitBegin(spec_, ref.session) ? 1 : 0);
    scheduler_.Authorize(ref.session, op + 1);
    scheduler_.Run();
  }

  /// End of the interleaving: every unfinished session is rolled back and
  /// gets the kBlocked verdict.
  void Finish() {
    scheduler_.Run();
    scheduler_.Halt();
  }

  std::vector<Verdict> Verdicts() const {
    std::vector<Verdict> verdicts;
    for (size_t s = 0; s < spec_.sessions.size(); ++s) {
      LaneFate fate = scheduler_.stats(static_cast<int>(s)).fate;
      verdicts.push_back(fate == LaneFate::kCommitted ? Verdict::kCommit
                         : fate == LaneFate::kAborted ? Verdict::kAbort
                                                      : Verdict::kBlocked);
    }
    return verdicts;
  }

  Engine* engine() { return &engine_; }
  const Scheduler& scheduler() const { return scheduler_; }

 private:
  const ScenarioSpec& spec_;
  Engine engine_;
  Scheduler scheduler_;
};

/// The outcome of a run over ProgramsFor(spec): verdicts, the committed
/// snapshot, and the committed-attempts history from the event log,
/// classified against the constraint objects.
ScenarioRunResult ResultOf(const ScenarioSpec& spec,
                           const std::string& protocol,
                           std::vector<Verdict> verdicts,
                           const std::vector<StepProgram>& programs,
                           const std::vector<LaneEvent>& events,
                           const Engine& engine) {
  ScenarioRunResult result;
  result.protocol = protocol;
  result.verdicts = std::move(verdicts);
  result.final_state = engine.store()->LatestCommittedSnapshot();
  result.constraint_ok = spec.constraint.Eval(result.final_state);
  result.committed = HistoryOf(programs, events, spec.entity_names).schedule;
  ObjectSetList objects = spec.Objects();
  IncrementalCpcChecker checker(objects);
  for (const Op& op : result.committed.ops()) {
    checker.AddOp(op.tx, op.kind, op.entity);
  }
  result.incremental_cpc = checker.IsCpc();
  result.classes =
      ClassifyAll(result.committed, objects, &result.classes_exact);
  return result;
}

/// The step trace of a run (RunnerOptions::verbose).
std::vector<std::string> TraceOf(const ScenarioSpec& spec,
                                 const std::vector<StepProgram>& programs,
                                 const std::vector<LaneEvent>& events) {
  // Indexed by ProgramOp::Kind.
  static const char* const kGrantedAs[] = {
      " begin", " read ", " write ", " commit", " abort (voluntary)", ""};
  std::vector<std::string> log;
  for (const LaneEvent& event : events) {
    int step = event.op - (ImplicitBegin(spec, event.lane) ? 1 : 0);
    const ProgramOp& op = programs[event.lane].ops[event.op];
    std::string what;
    switch (event.kind) {
      case LaneEvent::Kind::kGranted:
        if (step < 0) {
          what = "begin (implicit)";
          break;
        }
        what = StrCat(spec.sessions[event.lane].steps[step].name,
                      kGrantedAs[static_cast<int>(op.kind)]);
        if (op.kind == ProgramOp::Kind::kRead ||
            op.kind == ProgramOp::Kind::kWrite) {
          what += StrCat(spec.entity_names[op.entity], " = ", event.value);
        }
        break;
      case LaneEvent::Kind::kAborted:
        what = "aborted by the protocol";
        break;
      case LaneEvent::Kind::kForcedAbort:
        what = "forced abort";
        break;
      case LaneEvent::Kind::kHalted:
        what = "still blocked at scenario end — rolled back";
        break;
    }
    log.push_back(StrCat(spec.sessions[event.lane].name, ": ", what));
  }
  return log;
}

}  // namespace

StatusOr<ScenarioRunResult> RunPermutation(const ScenarioSpec& spec,
                                           const std::vector<StepRef>& order,
                                           const std::string& protocol,
                                           const RunnerOptions& options) {
  StatusOr<ProtocolKind> kind = ParseProtocolKind(protocol);
  if (!kind.ok()) return kind.status();
  Interleaving run(spec, *kind, /*wal=*/nullptr);
  for (const StepRef& ref : order) run.Inject(ref);
  run.Finish();
  const Scheduler& scheduler = run.scheduler();
  ScenarioRunResult result =
      ResultOf(spec, protocol, run.Verdicts(), scheduler.programs(),
               scheduler.events(), *run.engine());
  if (options.verbose) {
    result.log = TraceOf(spec, scheduler.programs(), scheduler.events());
  }
  return result;
}

StatusOr<ScenarioRunResult> RunConcurrentViaSessions(
    const ScenarioSpec& spec, const std::string& protocol,
    int64_t max_blocked_us) {
  StatusOr<ProtocolKind> kind = ParseProtocolKind(protocol);
  if (!kind.ok()) return kind.status();
  EngineOptions engine_options = EngineFor(spec, *kind, /*wal=*/nullptr);
  engine_options.max_blocked_us = max_blocked_us;
  Engine engine(std::move(engine_options));
  ScopedEngineShutdown teardown(&engine);

  const int n = static_cast<int>(spec.sessions.size());
  const std::vector<StepProgram> programs = ProgramsFor(spec, *kind);
  std::vector<Verdict> verdicts(n, Verdict::kAbort);
  std::vector<LaneEvent> events;
  std::mutex events_mu;

  // Sessions open in session order, so runtime transaction ids equal
  // session indices. Begin issuance is ticketed in the same order;
  // everything after Begin returns runs under free OS scheduling.
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
      const StepProgram& program = programs[s];
      auto granted = [&](int op, Value value) {
        std::lock_guard<std::mutex> lock(events_mu);
        events.push_back({LaneEvent::Kind::kGranted, s, 0, op, value});
        return true;
      };
      {
        std::unique_lock<std::mutex> lock(turn_mu);
        turn_cv.wait(lock, [&] { return turn == s; });
      }
      Status begun = session->Begin(program.spec);
      {
        std::lock_guard<std::mutex> lock(turn_mu);
        ++turn;
      }
      turn_cv.notify_all();
      if (!begun.ok()) return;  // verdict stays kAbort
      ValueVector view = spec.initial;
      // ops[0] is the Begin that already ran.
      if (RunOps(session.get(), program, 1,
                 static_cast<int>(program.ops.size()), &view, granted) &&
          program.ops.back().kind == ProgramOp::Kind::kCommit) {
        verdicts[s] = Verdict::kCommit;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ResultOf(spec, protocol, std::move(verdicts), programs, events,
                  engine);
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
    Interleaving run(spec, ProtocolKind::kCep, &wal);
    for (size_t i = 0; i < k; ++i) run.Inject(order[i]);
    std::vector<int> committed_before;
    std::vector<Verdict> verdicts = run.Verdicts();
    for (size_t s = 0; s < verdicts.size(); ++s) {
      if (verdicts[s] == Verdict::kCommit) {
        committed_before.push_back(static_cast<int>(s));
      }
    }
    ValueVector snapshot_before =
        run.engine()->store()->LatestCommittedSnapshot();
    RecoveryResult rec = run.engine()->CrashRecover(RecoveryOptions{});
    auto fail = [&](const std::string& what) {
      failures.push_back(StrCat("crash point ", k, ": ", what));
    };
    if (!rec.status.ok()) {
      fail(StrCat("recovery failed: ", rec.status.message()));
      continue;
    }
    ValueVector recovered = run.engine()->store()->LatestCommittedSnapshot();
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
