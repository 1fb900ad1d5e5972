// Differential fuzzer for the validation hot path: the in-place chain walk,
// the columnar candidate arena, and the batched (striped) clause
// evaluation must be observationally equivalent to the simple reference
// paths that survive alongside them —
//
//   * ForEachVersion vs ChainSnapshot (the copying walk),
//   * ColumnarCandidates vs AllCandidateValues (the nested-vector build),
//   * pruned/indexed batched search vs the exhaustive scalar search.
//
// Each seeded trial drives a random multi-writer history — appends, commits,
// rollbacks (aborts), and CollectObsolete sweeps with pinned refs — and
// cross-checks the three pairs at random points along the way, so the
// equivalences hold across every store shape GC and aborts can produce.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/random.h"
#include "predicate/assignment_search.h"
#include "storage/version_store.h"
#include "fuzz_support.h"

namespace nonserial {
namespace {

Predicate RandomPredicate(Rng& rng, int entities) {
  Predicate p;
  for (EntityId e = 0; e < entities; ++e) {
    p.AddClause(Clause({EntityVsConst(e, CompareOp::kGe, -5)}));
  }
  int links = static_cast<int>(rng.UniformInt(1, entities));
  for (int i = 0; i < links; ++i) {
    EntityId a = static_cast<EntityId>(rng.UniformInt(0, entities - 1));
    EntityId b = static_cast<EntityId>(rng.UniformInt(0, entities - 1));
    if (a == b) b = (b + 1) % entities;
    p.AddClause(Clause({EntityVsEntity(a, CompareOp::kLe, b),
                        EntityVsConst(a, CompareOp::kLe,
                                      rng.UniformInt(5, 60))}));
  }
  return p;
}

// The in-place walk must observe exactly what the copying snapshot does.
void ExpectChainWalksAgree(const VersionStore& store, uint64_t seed) {
  for (EntityId e = 0; e < store.num_entities(); ++e) {
    std::vector<Version> snapshot = store.ChainSnapshot(e);
    size_t visited = 0;
    store.ForEachVersion(e, [&](const Version& v, int index) {
      ASSERT_LT(static_cast<size_t>(index), snapshot.size())
          << fuzz::ReproduceHint(seed);
      const Version& ref = snapshot[index];
      EXPECT_EQ(v.value, ref.value) << fuzz::ReproduceHint(seed);
      EXPECT_EQ(v.writer, ref.writer) << fuzz::ReproduceHint(seed);
      EXPECT_EQ(v.committed, ref.committed) << fuzz::ReproduceHint(seed);
      EXPECT_EQ(v.dead, ref.dead) << fuzz::ReproduceHint(seed);
      ++visited;
    });
    EXPECT_EQ(visited, snapshot.size()) << fuzz::ReproduceHint(seed);
  }
}

// One verdict comparison: exhaustive scalar search (the reference) vs the
// batched pruned and indexed modes over the columnar arena.
void ExpectSearchPathsAgree(const VersionStore& store,
                            const Predicate& predicate, uint64_t seed) {
  DatabaseState db = store.AsDatabaseState();
  std::vector<std::vector<Value>> legacy = db.AllCandidateValues();
  CandidateBuffer columnar = db.ColumnarCandidates();
  ASSERT_TRUE(columnar == CandidateBuffer::FromLists(legacy))
      << fuzz::ReproduceHint(seed);

  std::optional<std::vector<int>> reference = FindSatisfyingAssignment(
      predicate, legacy, SearchMode::kExhaustive);
  for (SearchMode mode : {SearchMode::kPruned, SearchMode::kIndexed}) {
    std::optional<std::vector<int>> batched =
        FindSatisfyingAssignment(predicate, columnar, mode);
    ASSERT_EQ(batched.has_value(), reference.has_value())
        << "mode " << static_cast<int>(mode) << ", "
        << fuzz::ReproduceHint(seed);
    if (batched.has_value()) {
      ValueVector values(legacy.size());
      for (size_t e = 0; e < legacy.size(); ++e) {
        values[e] = columnar.view(static_cast<EntityId>(e))[(*batched)[e]];
      }
      EXPECT_TRUE(predicate.Eval(values))
          << "mode " << static_cast<int>(mode) << ", "
          << fuzz::ReproduceHint(seed);
      EXPECT_TRUE(db.IsVersionState(values)) << fuzz::ReproduceHint(seed);
    }
  }
}

TEST(HotpathDifferentialFuzzTest, FlatColumnarBatchedPathsMatchReference) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    if (!fuzz::ShouldRunSeed(seed)) continue;
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    int entities = static_cast<int>(rng.UniformInt(2, 6));
    int writers = static_cast<int>(rng.UniformInt(2, 6));
    ValueVector initial(entities);
    for (Value& v : initial) v = rng.UniformInt(0, 40);
    VersionStore store(initial);
    Predicate predicate = RandomPredicate(rng, entities);

    int ops = static_cast<int>(rng.UniformInt(20, 60));
    for (int op = 0; op < ops; ++op) {
      double dice = rng.NextDouble();
      int w = static_cast<int>(rng.UniformInt(0, writers - 1));
      if (dice < 0.55) {
        EntityId e = static_cast<EntityId>(rng.UniformInt(0, entities - 1));
        int idx = store.Append(e, rng.UniformInt(-10, 70), w);
        ASSERT_EQ(store.ChainSize(e), idx + 1) << fuzz::ReproduceHint(seed);
      } else if (dice < 0.75) {
        store.CommitWriter(w);
      } else if (dice < 0.9) {
        // Abort interleaving: roll the writer back, mirroring the engine's
        // Abort path.
        store.RollbackWriter(w);
      } else {
        // GC interleaving with pinned refs: protect a random committed
        // version per entity; everything else obsolete may go.
        std::vector<VersionRef> pinned;
        for (EntityId e = 0; e < entities; ++e) {
          if (!rng.Bernoulli(0.5)) continue;
          int size = store.ChainSize(e);
          pinned.push_back(
              VersionRef{e, static_cast<int>(rng.UniformInt(0, size - 1))});
        }
        store.CollectObsolete(pinned);
        for (const VersionRef& ref : pinned) {
          EXPECT_EQ(store.At(ref).value, store.Read(ref))
              << fuzz::ReproduceHint(seed);
        }
      }
      // Cross-check at random interior points (≈3 per trial) so commit/
      // abort/GC intermediate shapes are covered, not just the final one.
      if (rng.Bernoulli(3.0 / ops)) {
        ExpectChainWalksAgree(store, seed);
        ExpectSearchPathsAgree(store, predicate, seed);
      }
    }
    store.CollectObsolete({});
    ExpectChainWalksAgree(store, seed);
    ExpectSearchPathsAgree(store, predicate, seed);
  }
}

}  // namespace
}  // namespace nonserial
