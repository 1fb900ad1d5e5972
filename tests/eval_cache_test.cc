#include "predicate/eval_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "predicate/batch_eval.h"
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

TEST(EvalCacheTest, MirrorsCountersIntoProtocolMetrics) {
  EvalCache cache(3);
  ProtocolMetrics metrics;
  cache.SetMetrics(&metrics);
  Predicate predicate = TestPredicate();
  CachedPredicate cached(predicate, &cache);
  ValueVector values = {10, 20, 30};
  cached.EvalClause(predicate, 0, values);
  cached.EvalClause(predicate, 0, values);
  cached.EvalClause(predicate, 1, values);
  EXPECT_EQ(metrics.cache_hits.value(), 1);
  EXPECT_EQ(metrics.cache_misses.value(), 2);
  EXPECT_EQ(cache.metrics(), &metrics);
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

// The assignment search evaluates clauses over whole candidate stripes
// without the cache; this keeps the batch evaluator pinned to the scalar
// oracle.
TEST(EvalCacheStripeTest, StripeAgreesWithScalarOnRandomValues) {
  Predicate predicate = TestPredicate();
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    ValueVector values = {rng.UniformInt(-20, 120), rng.UniformInt(-20, 120),
                          rng.UniformInt(-20, 120)};
    std::vector<Value> stripe;
    for (int i = 0; i < 9; ++i) stripe.push_back(rng.UniformInt(-20, 120));
    for (const Clause& clause : predicate.clauses()) {
      for (EntityId striped : clause.Object()) {
        std::vector<uint8_t> out(stripe.size());
        EvalClauseOverStripe(clause, values, striped, stripe.data(),
                             static_cast<int32_t>(stripe.size()), out.data());
        ValueVector probe = values;
        for (size_t i = 0; i < stripe.size(); ++i) {
          probe[striped] = stripe[i];
          EXPECT_EQ(out[i] != 0, clause.Eval(probe));
        }
      }
    }
  }
}

// Concurrent evaluators over one cache, racing inserts, hits and shard
// rehashes: memoized results must stay correct (the TSan leg of
// scripts/ci.sh checks the data races this test provokes).
TEST(EvalCacheConcurrencyTest, ConcurrentProbesAgreeWithPlainEval) {
  EvalCache cache;
  Predicate predicate = TestPredicate();
  CachedPredicate cached(predicate, &cache);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cached, &predicate, t] {
      // Two threads share a seed so their probes hit each other's entries.
      Rng rng(100 + t / 2);
      for (int trial = 0; trial < 2000; ++trial) {
        ValueVector values = {rng.UniformInt(-20, 120),
                              rng.UniformInt(-20, 120),
                              rng.UniformInt(-20, 120)};
        ASSERT_EQ(cached.Eval(predicate, values), predicate.Eval(values));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const ProtocolMetrics& stats = *cache.metrics();
  EXPECT_GT(stats.cache_hits.value(), 0);
  EXPECT_GT(stats.cache_misses.value(), 0);
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
