// Fuzz sweep over the scenario parser: random mutations, truncations, and
// splices of valid spec text must never crash the parser — every input
// either parses into a spec that passes validation or returns a clean
// InvalidArgument. Parsed specs are additionally pushed through the
// deterministic runner under CEP to keep the whole front end crash-free.

#include <random>
#include <string>

#include <gtest/gtest.h>

#include "protocol/registry.h"
#include "scenario/parser.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "fuzz_support.h"

namespace nonserial {
namespace scenario {
namespace {

constexpr char kSeedSpecs[][512] = {
    R"spec(scenario a
class cpc
setup { entity x = 1 constraint "x >= 0" }
session s1 {
  input "x >= 0" output "x >= 0"
  step r1 { read x } step w1 { write x = x + 1 } step c1 { commit }
}
permutation r1 w1 c1
)spec",
    R"spec(scenario b
setup { entity x = 2 entity y = 3 constraint "(x >= 0) & (y >= 0)" }
session s1 {
  input "(x >= 0) & (y >= 0)" output "y >= 0"
  step r1 { read x } step w1 { write y = x * 2 } step c1 { commit }
}
session s2 {
  input "y >= 0" output "y >= 0"
  step r2 { read y } step a2 { abort }
}
permutation r1 r2 w1 c1 a2 {
  expect "CEP" { s1 commit s2 abort classes +cpc final y = 4 }
}
all-permutations max-runs 16
)spec",
};

// Characters the mutator splices in: structural punctuation, quotes, and
// keyword fragments are far more likely to hit parser states than raw
// bytes.
constexpr char kAlphabet[] =
    "{}=+-*(),\"# \n\tscenario session step permutation expect classes "
    "final read write commit abort entity constraint input output after "
    "all-permutations max-runs 0123456789 xyq";

std::string Mutate(const std::string& base, std::mt19937_64* rng) {
  std::string text = base;
  std::uniform_int_distribution<int> op_dist(0, 3);
  int edits = 1 + static_cast<int>((*rng)() % 4);
  for (int i = 0; i < edits; ++i) {
    if (text.empty()) break;
    size_t pos = (*rng)() % text.size();
    switch (op_dist(*rng)) {
      case 0:  // truncate
        text = text.substr(0, pos);
        break;
      case 1:  // delete a span
        text.erase(pos, 1 + (*rng)() % 8);
        break;
      case 2:  // overwrite a byte
        text[pos] = kAlphabet[(*rng)() % (sizeof(kAlphabet) - 1)];
        break;
      default: {  // insert a fragment of alphabet
        size_t frag = 1 + (*rng)() % 12;
        std::string insert;
        for (size_t k = 0; k < frag; ++k) {
          insert.push_back(kAlphabet[(*rng)() % (sizeof(kAlphabet) - 1)]);
        }
        text.insert(pos, insert);
        break;
      }
    }
  }
  return text;
}

TEST(ScenarioFuzz, ParserNeverCrashesOnMutations) {
  constexpr uint64_t kSeeds = 400;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    if (!fuzz::ShouldRunSeed(seed)) continue;
    std::mt19937_64 rng(seed);
    const std::string& base =
        kSeedSpecs[seed % (sizeof(kSeedSpecs) / sizeof(kSeedSpecs[0]))];
    std::string text = Mutate(base, &rng);
    StatusOr<ScenarioSpec> spec = ParseScenario(text);
    if (!spec.ok()) {
      // A clean error with a message is the expected failure shape.
      EXPECT_FALSE(spec.status().message().empty())
          << fuzz::ReproduceHint(seed);
      continue;
    }
    // Whatever parsed must re-validate (the parser runs ValidateSpec) and
    // must be drivable without crashing.
    ASSERT_TRUE(ValidateSpec(*spec).ok()) << fuzz::ReproduceHint(seed);
    if (!spec->permutations.empty()) {
      StatusOr<ScenarioRunResult> run =
          RunPermutation(*spec, spec->permutations[0].order, "CEP");
      ASSERT_TRUE(run.ok()) << fuzz::ReproduceHint(seed);
      ASSERT_EQ(run->verdicts.size(), spec->sessions.size())
          << fuzz::ReproduceHint(seed);
    }
  }
}

TEST(ScenarioFuzz, EveryPrefixOfAValidSpecFailsCleanly) {
  const std::string base = kSeedSpecs[1];
  for (size_t cut = 0; cut < base.size(); ++cut) {
    StatusOr<ScenarioSpec> spec = ParseScenario(base.substr(0, cut));
    if (!spec.ok()) {
      EXPECT_FALSE(spec.status().message().empty()) << "cut=" << cut;
    }
  }
  // The full text parses.
  EXPECT_TRUE(ParseScenario(base).ok());
}

TEST(ScenarioFuzz, RunnerSurvivesRandomValidInterleavings) {
  // Drive random (valid) interleavings of seed spec b under every
  // protocol; verdict vectors must always come back full-size and the
  // differential CPC check must agree.
  StatusOr<ScenarioSpec> spec = ParseScenario(kSeedSpecs[1]);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  bool truncated = false;
  std::vector<std::vector<StepRef>> orders =
      EnumerateInterleavings(*spec, 64, &truncated);
  ASSERT_FALSE(orders.empty());
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    if (!fuzz::ShouldRunSeed(seed)) continue;
    std::mt19937_64 rng(seed);
    const std::vector<StepRef>& order = orders[rng() % orders.size()];
    for (ProtocolKind kind : AllProtocolKinds()) {
      const std::string protocol = ProtocolKindName(kind);
      StatusOr<ScenarioRunResult> run = RunPermutation(*spec, order, protocol);
      ASSERT_TRUE(run.ok()) << protocol << " " << fuzz::ReproduceHint(seed);
      EXPECT_EQ(run->verdicts.size(), spec->sessions.size())
          << protocol << " " << fuzz::ReproduceHint(seed);
      EXPECT_EQ(run->incremental_cpc, run->classes.cpc)
          << protocol << " " << fuzz::ReproduceHint(seed);
    }
  }
}

}  // namespace
}  // namespace scenario
}  // namespace nonserial
