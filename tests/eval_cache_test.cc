#include "predicate/eval_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "predicate/predicate.h"

namespace nonserial {
namespace {

// x=0, y=1, z=2 with a range clause per entity plus linking clauses —
// the shape the protocol's input constraints take.
Predicate TestPredicate() {
  Predicate p;
  p.AddClause(Clause({EntityVsConst(0, CompareOp::kGe, 0)}));
  p.AddClause(Clause({EntityVsConst(1, CompareOp::kLe, 100)}));
  p.AddClause(Clause({EntityVsEntity(0, CompareOp::kLe, 1),
                      EntityVsConst(0, CompareOp::kLe, 50)}));
  p.AddClause(Clause({EntityVsEntity(1, CompareOp::kLt, 2)}));
  return p;
}

TEST(EvalCacheTest, MemoizedAgreesWithPlainEvalOnRandomValues) {
  EvalCache cache(3);
  Predicate predicate = TestPredicate();
  CachedPredicate cached(predicate, &cache);
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    ValueVector values = {rng.UniformInt(-20, 120), rng.UniformInt(-20, 120),
                          rng.UniformInt(-20, 120)};
    EXPECT_EQ(cached.Eval(predicate, values), predicate.Eval(values));
    for (int c = 0; c < cached.num_clauses(); ++c) {
      EXPECT_EQ(cached.EvalClause(predicate, c, values),
                predicate.clauses()[c].Eval(values));
    }
  }
}

TEST(EvalCacheTest, SecondProbeWithSameValuesHits) {
  EvalCache cache(3);
  Predicate predicate = TestPredicate();
  CachedPredicate cached(predicate, &cache);
  ValueVector values = {10, 20, 30};
  EXPECT_TRUE(cached.EvalClause(predicate, 0, values));
  EXPECT_EQ(cache.metrics()->cache_hits.value(), 0);
  EXPECT_EQ(cache.metrics()->cache_misses.value(), 1);
  EXPECT_TRUE(cached.EvalClause(predicate, 0, values));
  EXPECT_EQ(cache.metrics()->cache_hits.value(), 1);
  EXPECT_EQ(cache.metrics()->cache_misses.value(), 1);
  EXPECT_DOUBLE_EQ(cache.metrics()->cache_hit_rate(), 0.5);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(EvalCacheTest, EpochBumpInvalidatesEntriesOverThatEntity) {
  EvalCache cache(3);
  Predicate predicate = TestPredicate();
  CachedPredicate cached(predicate, &cache);
  ValueVector values = {10, 20, 30};
  // Clause 3 is y < z (entities 1, 2); prime the cache.
  EXPECT_TRUE(cached.EvalClause(predicate, 3, values));
  // A version install on y ages the entry; the next probe replaces it and
  // counts an invalidation (the recomputed result is still correct).
  cache.BumpEntity(1);
  EXPECT_TRUE(cached.EvalClause(predicate, 3, values));
  const ProtocolMetrics& stats = *cache.metrics();
  EXPECT_EQ(stats.cache_hits.value(), 0);
  EXPECT_EQ(stats.cache_misses.value(), 2);
  EXPECT_EQ(stats.cache_invalidations.value(), 1);
  EXPECT_EQ(cache.epoch_bumps(), 1);
  // The refreshed entry carries the new epoch: hits again.
  EXPECT_TRUE(cached.EvalClause(predicate, 3, values));
  EXPECT_EQ(cache.metrics()->cache_hits.value(), 1);
}

TEST(EvalCacheTest, BumpOfUnrelatedEntityKeepsEntriesFresh) {
  EvalCache cache(3);
  Predicate predicate = TestPredicate();
  CachedPredicate cached(predicate, &cache);
  ValueVector values = {10, 20, 30};
  EXPECT_TRUE(cached.EvalClause(predicate, 3, values));  // Over y, z.
  cache.BumpEntity(0);  // x is not in clause 3's object.
  EXPECT_TRUE(cached.EvalClause(predicate, 3, values));
  EXPECT_EQ(cache.metrics()->cache_hits.value(), 1);
  EXPECT_EQ(cache.metrics()->cache_invalidations.value(), 0);
}

TEST(EvalCacheTest, InvalidateAllAgesEveryEntry) {
  EvalCache cache(3);
  Predicate predicate = TestPredicate();
  CachedPredicate cached(predicate, &cache);
  ValueVector values = {10, 20, 30};
  for (int c = 0; c < cached.num_clauses(); ++c) {
    cached.EvalClause(predicate, c, values);
  }
  cache.InvalidateAll();
  for (int c = 0; c < cached.num_clauses(); ++c) {
    EXPECT_EQ(cached.EvalClause(predicate, c, values),
              predicate.clauses()[c].Eval(values));
  }
  const ProtocolMetrics& stats = *cache.metrics();
  EXPECT_EQ(stats.cache_hits.value(), 0);
  EXPECT_EQ(stats.cache_invalidations.value(), cached.num_clauses());
}

TEST(EvalCacheTest, OutOfRangeEntityBumpInvalidatesConservatively) {
  EvalCache cache(3);
  Predicate predicate = TestPredicate();
  CachedPredicate cached(predicate, &cache);
  ValueVector values = {10, 20, 30};
  cached.EvalClause(predicate, 0, values);
  cache.BumpEntity(999);  // Beyond the epoch table: global bump.
  cached.EvalClause(predicate, 0, values);
  EXPECT_EQ(cache.metrics()->cache_hits.value(), 0);
  EXPECT_EQ(cache.metrics()->cache_invalidations.value(), 1);
}

TEST(EvalCacheTest, MirrorsCountersIntoProtocolMetrics) {
  EvalCache cache(3);
  ProtocolMetrics metrics;
  cache.SetMetrics(&metrics);
  Predicate predicate = TestPredicate();
  CachedPredicate cached(predicate, &cache);
  ValueVector values = {10, 20, 30};
  cached.EvalClause(predicate, 0, values);
  cached.EvalClause(predicate, 0, values);
  cache.BumpEntity(0);
  cached.EvalClause(predicate, 0, values);
  EXPECT_EQ(metrics.cache_hits.value(), 1);
  EXPECT_EQ(metrics.cache_misses.value(), 2);
  EXPECT_EQ(metrics.cache_invalidations.value(), 1);
}

TEST(EvalCacheTest, ClearDropsEntriesAndCounters) {
  EvalCache cache(3);
  Predicate predicate = TestPredicate();
  CachedPredicate cached(predicate, &cache);
  ValueVector values = {10, 20, 30};
  cached.EvalClause(predicate, 0, values);
  cached.EvalClause(predicate, 0, values);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.metrics()->cache_hits.value(), 0);
  EXPECT_EQ(cache.metrics()->cache_misses.value(), 0);
}

TEST(EvalCacheStripeTest, StripeAgreesWithScalarOnRandomValues) {
  EvalCache cache(3);
  Predicate predicate = TestPredicate();
  CachedPredicate cached(predicate, &cache);
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    ValueVector values = {rng.UniformInt(-20, 120), rng.UniformInt(-20, 120),
                          rng.UniformInt(-20, 120)};
    std::vector<Value> stripe;
    for (int i = 0; i < 9; ++i) stripe.push_back(rng.UniformInt(-20, 120));
    for (int c = 0; c < cached.num_clauses(); ++c) {
      for (EntityId striped : cached.ClauseEntities(c)) {
        std::vector<uint8_t> out(stripe.size());
        cached.EvalClauseStripe(predicate, c, values, striped, stripe.data(),
                                static_cast<int32_t>(stripe.size()),
                                out.data());
        ValueVector probe = values;
        for (size_t i = 0; i < stripe.size(); ++i) {
          probe[striped] = stripe[i];
          EXPECT_EQ(out[i] != 0, predicate.clauses()[c].Eval(probe));
        }
      }
    }
  }
}

TEST(EvalCacheStripeTest, StripeAndScalarShareEntries) {
  // The batch path must produce the exact keys of the scalar path: entries
  // a scalar evaluation inserted answer stripe probes and vice versa.
  EvalCache cache(3);
  Predicate predicate = TestPredicate();
  CachedPredicate cached(predicate, &cache);
  ValueVector values = {10, 20, 30};
  const std::vector<Value> stripe = {5, 10, 15};
  // Scalar inserts for y = 5, 10, 15 on clause 3 (y < z).
  for (Value y : stripe) {
    ValueVector probe = values;
    probe[1] = y;
    cached.EvalClause(predicate, 3, probe);
  }
  EXPECT_EQ(cache.metrics()->cache_misses.value(), 3);
  std::vector<uint8_t> out(stripe.size());
  cached.EvalClauseStripe(predicate, 3, values, /*striped_entity=*/1,
                          stripe.data(), 3, out.data());
  EXPECT_EQ(cache.metrics()->cache_misses.value(), 3)
      << "stripe probe missed scalar entries";
  EXPECT_EQ(cache.metrics()->cache_hits.value(), 3);
  // And the reverse: a fresh stripe inserts entries the scalar path hits.
  const std::vector<Value> fresh = {40, 45};
  cached.EvalClauseStripe(predicate, 3, values, 1, fresh.data(), 2,
                          out.data());
  EXPECT_EQ(cache.metrics()->cache_misses.value(), 5);
  ValueVector probe = values;
  probe[1] = 40;
  cached.EvalClause(predicate, 3, probe);
  EXPECT_EQ(cache.metrics()->cache_hits.value(), 4);
  EXPECT_EQ(cache.metrics()->cache_misses.value(), 5);
}

// Regression: EnsureEntities used to swap the epoch array non-atomically,
// yet the parallel driver reaches it while verifier threads probe the
// cache. The table is now published through an atomic pointer with retired
// tables kept alive. Concurrent growers, bumpers, and evaluators must not
// crash or corrupt results (the TSan leg of scripts/ci.sh checks the data
// races this test provokes).
TEST(EvalCacheConcurrencyTest, ConcurrentGrowthProbesAndBumps) {
  EvalCache cache(1);
  Predicate predicate = TestPredicate();
  CachedPredicate cached(predicate, &cache);
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  // Growers: ratchet the epoch table upward while everything else runs.
  for (int g = 0; g < 2; ++g) {
    threads.emplace_back([&cache, g] {
      for (int n = 1; n <= 2000; ++n) cache.EnsureEntities(n + g);
    });
  }
  // Bumpers: invalidate entities, racing the growth copies.
  threads.emplace_back([&cache, &done] {
    int e = 0;
    while (!done.load(std::memory_order_acquire)) {
      cache.BumpEntity(e++ % 3);
    }
  });
  // Evaluators: memoized results must stay correct throughout.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&cached, &predicate, t] {
      Rng rng(100 + t);
      for (int trial = 0; trial < 2000; ++trial) {
        ValueVector values = {rng.UniformInt(-20, 120),
                              rng.UniformInt(-20, 120),
                              rng.UniformInt(-20, 120)};
        ASSERT_EQ(cached.Eval(predicate, values), predicate.Eval(values));
      }
    });
  }
  threads[0].join();
  threads[1].join();
  done.store(true, std::memory_order_release);
  for (size_t i = 2; i < threads.size(); ++i) threads[i].join();
}

TEST(EvalCacheTest, StructurallyIdenticalPredicatesShareEntries) {
  // Two transactions with the same specification predicate: the second's
  // evaluations hit the entries the first's populated (keying is by clause
  // structure + values, not by object identity).
  EvalCache cache(3);
  Predicate a = TestPredicate();
  Predicate b = TestPredicate();
  CachedPredicate cached_a(a, &cache);
  CachedPredicate cached_b(b, &cache);
  ValueVector values = {10, 20, 30};
  cached_a.Eval(a, values);
  int64_t misses_after_a = cache.metrics()->cache_misses.value();
  cached_b.Eval(b, values);
  EXPECT_EQ(cache.metrics()->cache_misses.value(), misses_after_a);
  EXPECT_GT(cache.metrics()->cache_hits.value(), 0);
}

}  // namespace
}  // namespace nonserial
