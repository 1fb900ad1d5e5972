// Runner semantics: the deterministic step scheduler across all six
// protocols, the engine's controller_factory generalization, expectation
// checking, interleaving enumeration, chaos replay, and the concurrent
// Session-API transport.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "protocol/registry.h"
#include "scenario/parser.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"

namespace nonserial {
namespace scenario {
namespace {

// The hand-verified write-skew scenario (mirrors scenarios/write_skew.spec).
constexpr char kWriteSkew[] = R"spec(
scenario write_skew
class cpc
setup {
  entity x = 20
  entity y = 20
  constraint "(x >= -100) & (y >= -100)"
}
session s1 {
  input  "(x >= -100) & (y >= -100)"
  output "(x >= -100) & (y >= -100)"
  step r1x { read x }
  step r1y { read y }
  step w1y { write y = x + y }
  step c1 { commit }
}
session s2 {
  input  "(x >= -100) & (y >= -100)"
  output "(x >= -100) & (y >= -100)"
  step r2x { read x }
  step r2y { read y }
  step w2x { write x = x + y }
  step c2 { commit }
}
permutation r1x r1y r2x r2y w1y c1 w2x c2
)spec";

ScenarioSpec ParseOrDie(const std::string& text) {
  StatusOr<ScenarioSpec> spec = ParseScenario(text);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return *std::move(spec);
}

TEST(ScenarioRunner, CepAdmitsWriteSkewOutsideSr) {
  ScenarioSpec spec = ParseOrDie(kWriteSkew);
  StatusOr<ScenarioRunResult> run =
      RunPermutation(spec, spec.permutations[0].order, "CEP");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->verdicts[0], Verdict::kCommit);
  EXPECT_EQ(run->verdicts[1], Verdict::kCommit);
  EXPECT_EQ(run->final_state, (ValueVector{40, 40}));
  ASSERT_TRUE(run->classes_exact);
  // The paper's split: inside CPC, outside SR (and CSR).
  EXPECT_TRUE(run->classes.cpc);
  EXPECT_FALSE(run->classes.vsr);
  EXPECT_FALSE(run->classes.csr);
  EXPECT_TRUE(run->constraint_ok);
  EXPECT_EQ(run->incremental_cpc, run->classes.cpc);
}

TEST(ScenarioRunner, S2plSerializesTheSamePermutation) {
  ScenarioSpec spec = ParseOrDie(kWriteSkew);
  StatusOr<ScenarioRunResult> run =
      RunPermutation(spec, spec.permutations[0].order, "S2PL");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // Deferred injection: s2 blocks at r2y until s1 commits, then finishes
  // with fresh values — both commit, serial outcome.
  EXPECT_EQ(run->verdicts[0], Verdict::kCommit);
  EXPECT_EQ(run->verdicts[1], Verdict::kCommit);
  EXPECT_EQ(run->final_state, (ValueVector{60, 40}));
  EXPECT_TRUE(run->classes.csr);
  EXPECT_TRUE(run->classes.vsr);
}

TEST(ScenarioRunner, MvtoAbortsTheLateWriter) {
  ScenarioSpec spec = ParseOrDie(kWriteSkew);
  StatusOr<ScenarioRunResult> run =
      RunPermutation(spec, spec.permutations[0].order, "MVTO");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->verdicts[0], Verdict::kAbort);
  EXPECT_EQ(run->verdicts[1], Verdict::kCommit);
  EXPECT_EQ(run->final_state, (ValueVector{40, 20}));
}

TEST(ScenarioRunner, EveryProtocolTerminatesAndAgreesWithIncrementalCpc) {
  ScenarioSpec spec = ParseOrDie(kWriteSkew);
  for (ProtocolKind kind : AllProtocolKinds()) {
    const std::string protocol = ProtocolKindName(kind);
    StatusOr<ScenarioRunResult> run =
        RunPermutation(spec, spec.permutations[0].order, protocol);
    ASSERT_TRUE(run.ok()) << protocol;
    EXPECT_EQ(run->verdicts.size(), 2u) << protocol;
    EXPECT_EQ(run->incremental_cpc, run->classes.cpc) << protocol;
    for (Verdict v : run->verdicts) {
      EXPECT_NE(v, Verdict::kBlocked) << protocol;
    }
  }
}

TEST(ScenarioRunner, CheckExpectationReportsMismatches) {
  ScenarioSpec spec = ParseOrDie(kWriteSkew);
  StatusOr<ScenarioRunResult> run =
      RunPermutation(spec, spec.permutations[0].order, "CEP");
  ASSERT_TRUE(run.ok());

  Expectation expect;
  expect.protocol = "CEP";
  expect.verdicts = {Verdict::kCommit, Verdict::kCommit};
  expect.classes.push_back({ClassAssertion::Cls::kCpc, true});
  expect.classes.push_back({ClassAssertion::Cls::kSr, false});
  expect.final_state = {{0, 40}, {1, 40}};
  std::vector<std::string> failures;
  EXPECT_TRUE(CheckExpectation(spec, expect, *run, &failures));
  EXPECT_TRUE(failures.empty());

  // Now flip every assertion and expect one failure line per mismatch.
  expect.verdicts[0] = Verdict::kAbort;
  expect.classes[1].expected = true;  // +sr, actually outside SR
  expect.final_state[0].second = 99;
  EXPECT_FALSE(CheckExpectation(spec, expect, *run, &failures));
  EXPECT_EQ(failures.size(), 3u);
}

TEST(ScenarioRunner, FormatExpectationRoundTripsThroughTheParser) {
  ScenarioSpec spec = ParseOrDie(kWriteSkew);
  StatusOr<ScenarioRunResult> run =
      RunPermutation(spec, spec.permutations[0].order, "CEP");
  ASSERT_TRUE(run.ok());
  std::string block = FormatExpectation(spec, *run);
  // Splice the printed block into the permutation and re-parse: the
  // --print-expect authoring loop must produce valid DSL.
  std::string text = kWriteSkew;
  std::string perm = "permutation r1x r1y r2x r2y w1y c1 w2x c2";
  text.replace(text.find(perm), perm.size(),
               perm + " {\n  " + block + "\n}");
  ScenarioSpec round = ParseOrDie(text);
  ASSERT_EQ(round.permutations[0].expectations.size(), 1u);
  // And the re-parsed expectation holds against the same run.
  std::vector<std::string> failures;
  EXPECT_TRUE(CheckExpectation(round, round.permutations[0].expectations[0],
                               *run, &failures))
      << (failures.empty() ? "" : failures[0]);
}

TEST(ScenarioRunner, EnumerateInterleavingsPrunesSymmetricTwins) {
  ScenarioSpec spec = ParseOrDie(kWriteSkew);
  bool truncated = false;
  std::vector<std::vector<StepRef>> orders =
      EnumerateInterleavings(spec, 2000, &truncated);
  EXPECT_FALSE(truncated);
  // 8 steps, 4 per session: C(8,4) = 70 raw interleavings; adjacent-
  // transposition pruning must cut that strictly while keeping at least
  // the serial orders.
  EXPECT_LT(orders.size(), 70u);
  EXPECT_GE(orders.size(), 2u);
  // Every enumerated order is a valid permutation (program order held).
  for (const auto& order : orders) {
    ASSERT_EQ(order.size(), 8u);
    std::vector<int> cursor(2, 0);
    for (const StepRef& ref : order) {
      EXPECT_EQ(ref.step, cursor[ref.session]);
      ++cursor[ref.session];
    }
  }
  // The cap reports truncation honestly.
  std::vector<std::vector<StepRef>> capped =
      EnumerateInterleavings(spec, 3, &truncated);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(capped.size(), 3u);
}

TEST(ScenarioRunner, EngineHostsEveryProtocolThroughTheFactory) {
  // The engine generalization under test: a non-CEP factory yields a
  // working controller with cep() == nullptr; the default path keeps
  // cep() valid.
  ScenarioSpec spec = ParseOrDie(kWriteSkew);
  StatusOr<ProtocolKind> kind = ParseProtocolKind("S2PL");
  ASSERT_TRUE(kind.ok());
  EngineOptions options;
  options.initial = spec.initial;
  options.controller_factory = MakeControllerFactory(*kind);
  Engine engine(std::move(options));
  ScopedEngineShutdown teardown(&engine);
  EXPECT_NE(engine.controller(), nullptr);
  EXPECT_EQ(engine.cep(), nullptr);

  EngineOptions default_options;
  default_options.initial = spec.initial;
  Engine default_engine(std::move(default_options));
  ScopedEngineShutdown default_teardown(&default_engine);
  EXPECT_NE(default_engine.cep(), nullptr);
  EXPECT_EQ(default_engine.controller(),
            static_cast<ConcurrencyController*>(default_engine.cep()));
}

TEST(ScenarioRunner, ChaosSweepHoldsAtEveryCrashPoint) {
  ScenarioSpec spec = ParseOrDie(kWriteSkew);
  StatusOr<std::vector<std::string>> failures =
      RunChaosSweep(spec, spec.permutations[0].order);
  ASSERT_TRUE(failures.ok()) << failures.status().ToString();
  EXPECT_TRUE(failures->empty())
      << "first: " << (failures->empty() ? "" : (*failures)[0]);
}

TEST(ScenarioRunner, RunSpecAssertsExpectationsAndBuildsAReportRow) {
  std::string text = kWriteSkew;
  std::string perm = "permutation r1x r1y r2x r2y w1y c1 w2x c2";
  text.replace(text.find(perm), perm.size(),
               perm +
                   " {\n"
                   "  expect \"CEP\" { s1 commit s2 commit classes +cpc -sr"
                   " final x = 40 y = 40 }\n"
                   "  expect \"MVTO\" { s1 abort s2 commit }\n"
                   "}");
  ScenarioSpec spec = ParseOrDie(text);
  StatusOr<SpecResult> result = RunSpec(spec, SuiteOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok()) << (result->failures.empty()
                                    ? ""
                                    : result->failures[0]);
  EXPECT_EQ(result->explicit_runs, 6);  // 1 permutation x 6 protocols
  EXPECT_GT(result->row.size(), 0u);

  // A wrong expectation turns into a failure line, not a crash.
  std::string bad = text;
  bad.replace(bad.find("s1 abort"), std::string("s1 abort").size(),
              "s1 commit");
  ScenarioSpec bad_spec = ParseOrDie(bad);
  StatusOr<SpecResult> bad_result = RunSpec(bad_spec, SuiteOptions{});
  ASSERT_TRUE(bad_result.ok());
  EXPECT_FALSE(bad_result->ok());
  ASSERT_FALSE(bad_result->failures.empty());
  EXPECT_NE(bad_result->failures[0].find("MVTO"), std::string::npos);
}

TEST(ScenarioRunner, DeferredInjectionLeavesDeadlockedSessionsBlocked) {
  // Two sessions that each write the other's entity first under S2PL with
  // upgrade-avoiding planned locks can deadlock; the runner must mark the
  // loser blocked (or aborted by the deadlock detector) and terminate.
  constexpr char kCross[] = R"spec(
scenario cross
setup { entity x = 1 entity y = 1 constraint "(x >= 0) & (y >= 0)" }
session s1 {
  input "(x >= 0) & (y >= 0)" output "(x >= 0) & (y >= 0)"
  step r1x { read x } step r1y { read y }
  step w1y { write y = x } step c1 { commit }
}
session s2 {
  input "(x >= 0) & (y >= 0)" output "(x >= 0) & (y >= 0)"
  step r2y { read y } step r2x { read x }
  step w2x { write x = y } step c2 { commit }
}
permutation r1x r2y r1y r2x w1y w2x c1 c2
)spec";
  ScenarioSpec spec = ParseOrDie(kCross);
  for (ProtocolKind kind : AllProtocolKinds()) {
    const std::string protocol = ProtocolKindName(kind);
    StatusOr<ScenarioRunResult> run =
        RunPermutation(spec, spec.permutations[0].order, protocol);
    ASSERT_TRUE(run.ok()) << protocol;
    // Termination is the property under test: every session ended in a
    // definite verdict and the store is a committed-only snapshot.
    EXPECT_EQ(run->verdicts.size(), 2u) << protocol;
    EXPECT_TRUE(run->constraint_ok) << protocol;
  }

  // A Figure 4 victim whose next step is not the next injection: s1
  // precedes s2, and s1's write of x dooms s2, which already read the
  // initial x. s2 must be rolled back at once, before r3z runs: s3 then
  // finds no version of z satisfying z >= 5 and stays blocked. Rolled back
  // only at its next step (c2), s2 would hand s3 its doomed z = 10 and
  // take s3 down with it (cascade abort).
  constexpr char kVictim[] = R"spec(
scenario victim
setup { entity x = 0 entity z = 0 constraint "(x >= 0) & (z >= 0)" }
session s1 {
  input "(x >= 0)" output "(x >= 0)"
  step w1x { write x = 5 } step c1 { commit }
}
session s2 {
  after s1
  input "(x >= 0) & (z >= 0)" output "(x >= 0) & (z >= 0)"
  step r2x { read x } step w2z { write z = 10 } step c2 { commit }
}
session s3 {
  input "(z >= 5)" output "(z >= 5)"
  step r3z { read z } step c3 { commit }
}
permutation r2x w2z w1x r3z c2 c1 c3
)spec";
  ScenarioSpec victim = ParseOrDie(kVictim);
  StatusOr<ScenarioRunResult> run = RunPermutation(
      victim, victim.permutations[0].order, "CEP", RunnerOptions{true});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->verdicts, (std::vector<Verdict>{
                               Verdict::kCommit, Verdict::kAbort,
                               Verdict::kBlocked}));
  EXPECT_EQ(run->final_state, (ValueVector{5, 0}));
  auto line_of = [&](const std::string& prefix, const std::string& text) {
    auto it = std::find_if(run->log.begin(), run->log.end(),
                           [&](const std::string& line) {
                             return line.rfind(prefix, 0) == 0 &&
                                    line.find(text) != std::string::npos;
                           });
    return it - run->log.begin();
  };
  const auto rolled_back = line_of("s2: ", "forced abort");
  ASSERT_LT(rolled_back, static_cast<long>(run->log.size()));
  EXPECT_EQ(rolled_back, line_of("s1: ", "w1x write") + 1);
  EXPECT_LT(rolled_back, line_of("s3: ", "begin"));
}

TEST(ScenarioRunner, RollbackAtTheEndCascadesToUnfinishedReaders) {
  // The interleaving stops before c1: s1 still holds its uncommitted x = 5
  // and s2, which read it, is parked at commit waiting for s1. Rolling s1
  // back at the end dooms s2, which must end as a forced abort rather than
  // as still blocked.
  constexpr char kReader[] = R"spec(
scenario reader
setup { entity x = 0 constraint "(x >= 0)" }
session s1 {
  input "(x >= 0)" output "(x >= 0)"
  step w1x { write x = 5 } step c1 { commit }
}
session s2 {
  input "(x >= 5)" output "(x >= 5)"
  step r2x { read x } step c2 { commit }
}
permutation w1x r2x c2 c1
)spec";
  ScenarioSpec spec = ParseOrDie(kReader);
  std::vector<StepRef> order = spec.permutations[0].order;
  order.pop_back();  // c1
  StatusOr<ScenarioRunResult> run =
      RunPermutation(spec, order, "CEP", RunnerOptions{true});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->verdicts,
            (std::vector<Verdict>{Verdict::kBlocked, Verdict::kAbort}));
  EXPECT_EQ(run->final_state, (ValueVector{0}));
  EXPECT_EQ(run->log, (std::vector<std::string>{
                          "s1: begin (implicit)", "s1: w1x write x = 5",
                          "s2: begin (implicit)", "s2: r2x read x = 5",
                          "s1: still blocked at scenario end — rolled back",
                          "s2: forced abort"}));
}

TEST(ScenarioRunner, ConcurrentSessionsMatchTheProtocolContract) {
  // Transport independence: the same scenario driven through real
  // Engine::OpenSession threads. Scheduling is the OS's, so only
  // protocol-invariant properties are asserted: termination, full verdict
  // vectors, differential CPC agreement, and a constraint-satisfying
  // final state.
  ScenarioSpec spec = ParseOrDie(kWriteSkew);
  for (ProtocolKind kind : AllProtocolKinds()) {
    const std::string protocol = ProtocolKindName(kind);
    StatusOr<ScenarioRunResult> run =
        RunConcurrentViaSessions(spec, protocol, /*max_blocked_us=*/500'000);
    ASSERT_TRUE(run.ok()) << protocol << ": " << run.status().ToString();
    EXPECT_EQ(run->verdicts.size(), 2u) << protocol;
    EXPECT_EQ(run->incremental_cpc, run->classes.cpc) << protocol;
    EXPECT_TRUE(run->constraint_ok) << protocol;
  }
}

}  // namespace
}  // namespace scenario
}  // namespace nonserial
