// Differential fuzzer for the incremental verification subsystem: every
// incremental/memoized path must be observationally equivalent to its
// from-scratch counterpart.
//
//   1. IncrementalCpcChecker vs IsConflictPredicateCorrect, checked after
//      every prefix of random schedules.
//   2. DeltaRevalidate vs a plain FindSatisfyingAssignment, over randomly
//      perturbed candidate sets — including the invalidation-after-abort
//      pattern, where a write is rolled back and revalidated again.
//   3. Crash-recovery replays: WAL prefixes re-verified with and without a
//      shared EvalCache must reach the same verdict.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "classes/recognizers.h"
#include "common/random.h"
#include "core/verify.h"
#include "predicate/assignment_search.h"
#include "predicate/eval_cache.h"
#include "schedule/schedule.h"
#include "sim/parallel_driver.h"
#include "storage/wal.h"
#include "workload/generators.h"

namespace nonserial {
namespace {

// ---------------------------------------------------------------------------
// 1. Incremental CPC checker vs the batch recognizer.

Schedule RandomSchedule(Rng& rng, int num_txs, int num_entities, int num_ops) {
  Schedule s;
  for (int e = 0; e < num_entities; ++e) {
    s.InternEntity("e" + std::to_string(e));
  }
  for (int i = 0; i < num_ops; ++i) {
    TxId tx = static_cast<TxId>(rng.UniformInt(0, num_txs - 1));
    OpKind kind = rng.Bernoulli(0.5) ? OpKind::kRead : OpKind::kWrite;
    EntityId entity = static_cast<EntityId>(rng.UniformInt(0, num_entities - 1));
    s.Append(tx, kind, entity);
  }
  return s;
}

ObjectSetList RandomObjects(Rng& rng, int num_entities) {
  ObjectSetList objects;
  int num_objects = static_cast<int>(rng.UniformInt(1, 3));
  for (int i = 0; i < num_objects; ++i) {
    std::set<EntityId> object;
    for (EntityId e = 0; e < num_entities; ++e) {
      if (rng.Bernoulli(0.5)) object.insert(e);
    }
    if (object.empty()) object.insert(static_cast<EntityId>(
        rng.UniformInt(0, num_entities - 1)));
    objects.push_back(std::move(object));
  }
  return objects;
}

TEST(IncrementalVerifyFuzzTest, CpcCheckerMatchesBatchRecognizerOnEveryPrefix) {
  Rng rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    int num_txs = static_cast<int>(rng.UniformInt(2, 4));
    int num_entities = static_cast<int>(rng.UniformInt(2, 5));
    int num_ops = static_cast<int>(rng.UniformInt(4, 16));
    Schedule schedule = RandomSchedule(rng, num_txs, num_entities, num_ops);
    ObjectSetList objects = RandomObjects(rng, num_entities);

    IncrementalCpcChecker checker(objects);
    Schedule prefix;
    for (int e = 0; e < num_entities; ++e) {
      prefix.InternEntity(schedule.EntityName(e));
    }
    for (const Op& op : schedule.ops()) {
      checker.AddOp(op);
      prefix.Append(op.tx, op.kind, op.entity);
      ASSERT_EQ(checker.IsCpc(), IsConflictPredicateCorrect(prefix, objects))
          << "trial " << trial << " after " << checker.num_ops()
          << " ops of " << schedule.ToString();
    }

    // Reset + refeed reaches the same verdict (the checker is a pure
    // function of the fed prefix and the object decomposition).
    bool final_verdict = checker.IsCpc();
    checker.Reset();
    EXPECT_TRUE(checker.IsCpc());
    for (const Op& op : schedule.ops()) checker.AddOp(op);
    EXPECT_EQ(checker.IsCpc(), final_verdict) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// 2. Delta-revalidation + memoized conjuncts vs from-scratch search.

Predicate RandomChainedPredicate(Rng& rng, int entities) {
  Predicate p;
  for (EntityId e = 0; e < entities; ++e) {
    p.AddClause(Clause({EntityVsConst(e, CompareOp::kGe, 0)}));
    p.AddClause(Clause({EntityVsConst(e, CompareOp::kLe, 100)}));
  }
  int links = static_cast<int>(rng.UniformInt(1, entities));
  for (int i = 0; i < links; ++i) {
    EntityId a = static_cast<EntityId>(rng.UniformInt(0, entities - 1));
    EntityId b = static_cast<EntityId>(rng.UniformInt(0, entities - 1));
    if (a == b) b = (b + 1) % entities;
    p.AddClause(Clause({EntityVsEntity(a, CompareOp::kLe, b),
                        EntityVsConst(a, CompareOp::kLe,
                                      rng.UniformInt(10, 90))}));
  }
  return p;
}

// Checks the incremental answer against from-scratch satisfiability and,
// when an assignment is produced, that it actually satisfies the predicate.
void ExpectDeltaAgrees(const Predicate& predicate,
                       const std::vector<std::vector<Value>>& candidates,
                       const std::optional<std::vector<int>>& incremental,
                       int trial) {
  bool scratch = FindSatisfyingAssignment(predicate, candidates,
                                          SearchMode::kPruned)
                     .has_value();
  ASSERT_EQ(incremental.has_value(), scratch) << "trial " << trial;
  if (incremental.has_value()) {
    ValueVector values(candidates.size());
    for (size_t e = 0; e < candidates.size(); ++e) {
      values[e] = candidates[e][(*incremental)[e]];
    }
    EXPECT_TRUE(predicate.Eval(values)) << "trial " << trial;
  }
}

TEST(IncrementalVerifyFuzzTest, DeltaRevalidateAgreesWithFromScratchSearch) {
  Rng rng(424242);
  int64_t total_delta_solves = 0;
  for (int trial = 0; trial < 200; ++trial) {
    int entities = static_cast<int>(rng.UniformInt(3, 8));
    int versions = static_cast<int>(rng.UniformInt(2, 6));
    Predicate predicate = RandomChainedPredicate(rng, entities);
    std::vector<std::vector<Value>> candidates(entities);
    for (int e = 0; e < entities; ++e) {
      for (int v = 0; v < versions; ++v) {
        // Some out-of-bounds values so unsatisfiable rounds occur too.
        candidates[e].push_back(rng.UniformInt(-20, 120));
      }
    }

    DeltaStats delta;

    std::optional<std::vector<int>> prev =
        FindSatisfyingAssignment(predicate, candidates, SearchMode::kPruned);
    ExpectDeltaAgrees(predicate, candidates, prev, trial);

    for (int round = 0; round < 8; ++round) {
      // A concurrent writer perturbs one or two entities' candidates.
      std::set<EntityId> changed;
      int writes = static_cast<int>(rng.UniformInt(1, 2));
      std::vector<std::pair<std::pair<int, int>, Value>> undo;
      for (int w = 0; w < writes; ++w) {
        int e = static_cast<int>(rng.UniformInt(0, entities - 1));
        int v = static_cast<int>(rng.UniformInt(0, versions - 1));
        undo.push_back({{e, v}, candidates[e][v]});
        candidates[e][v] = rng.UniformInt(-20, 120);
        changed.insert(e);
      }

      std::optional<std::vector<int>> next;
      if (prev.has_value()) {
        next = DeltaRevalidate(predicate, candidates, *prev, changed,
                               SearchMode::kPruned, nullptr, &delta);
      } else {
        next = FindSatisfyingAssignment(predicate, candidates,
                                        SearchMode::kPruned);
      }
      ExpectDeltaAgrees(predicate, candidates, next, trial);

      // Invalidation-after-abort: every other round the writer aborts and
      // its values roll back (the engine's Abort path). The delta path must
      // converge back to the pre-write answer.
      if (round % 2 == 1) {
        for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
          candidates[it->first.first][it->first.second] = it->second;
        }
        if (next.has_value()) {
          next = DeltaRevalidate(predicate, candidates, *next, changed,
                                 SearchMode::kPruned, nullptr, &delta);
        } else {
          next = FindSatisfyingAssignment(predicate, candidates,
                                          SearchMode::kPruned);
        }
        ExpectDeltaAgrees(predicate, candidates, next, trial);
      }
      prev = std::move(next);
    }
    total_delta_solves += delta.delta_solves;
  }
  // The incremental path must actually have been exercised, not just have
  // fallen through to full searches.
  EXPECT_GT(total_delta_solves, 0);
}

// ---------------------------------------------------------------------------
// 3. Crash-recovery replays with and without a shared cache.

TEST(IncrementalVerifyFuzzTest, RecoveryReplaysAgreeWithAndWithoutCache) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    DesignWorkloadParams params;
    params.num_txs = 5;
    params.num_entities = 6;
    params.num_conjuncts = 2;
    params.reads_per_tx = 2;
    params.think_time = 0;
    params.arrival_spacing = 0;
    params.precedence_prob = 0.3;
    params.hot_theta = 0.6;
    params.seed = seed;
    SimWorkload workload = MakeDesignWorkload(params);

    WriteAheadLog wal(workload.initial);
    ParallelDriverConfig config;
    config.num_threads = 2;
    config.us_per_tick = 0;
    config.max_restarts = 60;
    config.backoff_us = 1;
    config.engine.poll_us = 50;
    config.max_wall_ms = 20'000;
    config.engine.wal = &wal;
    ParallelDriver driver(config);
    ParallelRunResult result = driver.Run(workload);
    ASSERT_FALSE(result.watchdog_expired) << "seed " << seed;

    // One cache shared across every replay of this seed — repeated
    // verification of the same history is exactly the workload the shared
    // cache exists for.
    EvalCache cache;
    Predicate constraint = WorkloadConstraint(workload);
    Rng rng(seed * 0x9e3779b9ULL);
    size_t log_len = wal.size();
    for (int k = 0; k < 5; ++k) {
      size_t prefix = k <= 1 ? log_len  // k=0 populates, k=1 replays warm.
                             : static_cast<size_t>(rng.UniformInt(
                                   0, static_cast<int64_t>(log_len)));
      RecoveryResult rec = wal.Recover(prefix);
      std::vector<CorrectExecutionProtocol::TxRecord> records =
          RecoveredRecords(rec.committed, workload.txs.size());
      ValueVector snapshot = rec.store->LatestCommittedSnapshot();
      Status with_cache =
          VerifyCepHistory(workload, records, snapshot, constraint, &cache);
      Status without_cache =
          VerifyCepHistory(workload, records, snapshot, constraint);
      EXPECT_EQ(with_cache.ok(), without_cache.ok())
          << "seed " << seed << " prefix " << prefix
          << ": cached verdict " << with_cache.ToString()
          << " vs from-scratch " << without_cache.ToString();
      EXPECT_TRUE(without_cache.ok())
          << "seed " << seed << " prefix " << prefix << ": "
          << without_cache.ToString();
    }
    // The k=1 replay re-verified the identical full-log history, so the
    // shared cache must have served hits.
    EXPECT_GT(cache.metrics()->cache_hits.value(), 0) << "seed " << seed;
  }
}

}  // namespace
}  // namespace nonserial
