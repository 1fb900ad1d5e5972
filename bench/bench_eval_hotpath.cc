// Experiment E16 — the predicate-evaluation hot path.
//
// The validation pipeline is gather-candidates -> evaluate-conjuncts. The
// seed implementation materialized it as: copy each version chain
// (ChainSnapshot), dedup candidates by rescanning the output vector
// (O(states²) std::find), one heap vector per entity, then one memoized
// EvalClause probe per candidate — a pointer-chasing, lock-per-probe walk.
// The shipped path walks each contiguous version chain in place
// (ForEachVersion), builds ONE columnar candidate arena, and evaluates each
// conjunct over the whole contiguous stripe at once (EvalClauseOverStripe:
// one auto-vectorized compare loop per atom, no memo).
//
// Leg A ("seed_path") reimplements the seed pipeline inline against the
// same store — gather AND memo, since the shipped EvalCache no longer
// contains the seed's unordered_map internals; leg B ("flat_path") is the
// shipped code. Both must produce byte-identical candidate lists and truth
// bits (differential assert), and leg B must clear a >= 3x speedup over
// leg A's miss path — every probe evaluates, the regime of a first
// validation — on the dense-entity workload below.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "predicate/batch_eval.h"
#include "predicate/candidate_buffer.h"
#include "predicate/eval_cache.h"
#include "storage/version_store.h"

#include "bench_util.h"

namespace nonserial {
namespace {

int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Bounds per entity plus chained linking clauses (the protocol experiments'
// constraint shape).
Predicate ChainPredicate(int entities, Value mid) {
  Predicate p;
  for (EntityId e = 0; e < entities; ++e) {
    p.AddClause(Clause({EntityVsConst(e, CompareOp::kGe, 0)}));
    p.AddClause(Clause({EntityVsConst(e, CompareOp::kLe, 1 << 20)}));
  }
  for (EntityId e = 0; e + 1 < entities; ++e) {
    p.AddClause(Clause({EntityVsEntity(e, CompareOp::kLe, e + 1),
                        EntityVsConst(e, CompareOp::kLe, mid)}));
  }
  return p;
}

// Leg A, stage 1: the seed candidate gather — chain copies plus the
// quadratic first-seen dedup CandidateValues used to do.
std::vector<std::vector<Value>> SeedGather(const VersionStore& store) {
  std::vector<std::vector<Value>> out;
  out.reserve(store.num_entities());
  for (EntityId e = 0; e < store.num_entities(); ++e) {
    std::vector<Value> candidates;
    for (const Version& v : store.ChainSnapshot(e)) {
      if (!v.committed || v.dead) continue;
      if (std::find(candidates.begin(), candidates.end(), v.value) ==
          candidates.end()) {
        candidates.push_back(v.value);
      }
    }
    out.push_back(std::move(candidates));
  }
  return out;
}

// Leg B, stage 1: the flat gather — in-place chain walk into one columnar
// arena, hash-set dedup (first-seen order, same contract).
void FlatGather(const VersionStore& store, CandidateBuffer* out,
                std::vector<uint8_t>* seen, Value value_bound) {
  out->Reset();
  for (EntityId e = 0; e < store.num_entities(); ++e) {
    std::fill(seen->begin(), seen->end(), 0);
    store.ForEachVersion(e, [&](const Version& v, int) {
      if (!v.committed || v.dead) return;
      uint8_t& mark = (*seen)[static_cast<size_t>(v.value)];
      if (mark) return;
      mark = 1;
      out->Push(v.value);
    });
    out->FinishEntity();
  }
  (void)value_bound;
}

// Leg A, stage 2: the seed memo — sharded mutex + unordered_map keyed
// exactly as the seed EvalCache was (same FNV fingerprint, same avalanched
// key, shard chosen by key): one lock round-trip per candidate probe, one
// more per insert, a node allocation per inserted entry. Epoch bookkeeping
// is omitted (no invalidations happen in this workload), which only makes
// this baseline FASTER than the real seed — conservative for the gate.
class SeedMemo {
 public:
  bool EvalClause(uint64_t clause_hash, const Clause& clause,
                  const std::vector<EntityId>& entities,
                  const ValueVector& values) {
    uint64_t fingerprint = fnv::kOffset;
    for (EntityId e : entities) {
      fingerprint = fnv::Mix(fingerprint, static_cast<uint64_t>(values[e]));
    }
    uint64_t key = fnv::Avalanche(clause_hash ^ (fingerprint * fnv::kPrime));
    Shard& shard = shards_[key % kNumShards];
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.table.find(key);
      if (it != shard.table.end() && it->second.clause_hash == clause_hash &&
          it->second.fingerprint == fingerprint) {
        return it->second.result;
      }
    }
    bool result = clause.Eval(values);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.table[key] = Entry{clause_hash, fingerprint, result};
    }
    return result;
  }

  void Clear() {
    for (Shard& s : shards_) s.table.clear();
  }

 private:
  struct Entry {
    uint64_t clause_hash = 0;
    uint64_t fingerprint = 0;
    bool result = false;
  };
  struct Shard {
    std::mutex mu;
    std::unordered_map<uint64_t, Entry> table;
  };
  static constexpr int kNumShards = 16;
  Shard shards_[kNumShards];
};

struct LegResult {
  int64_t us = 0;
  int64_t evals = 0;       // Conjunct-candidate evaluations.
  std::vector<uint8_t> bits;  // Truth bits, clause-major then candidate.
};

int Run(BenchReport* report) {
  constexpr int kEntities = 16;
  constexpr int kVersionsPerEntity = 96;
  constexpr int kRounds = 300;
  constexpr Value kValueBound = 4096;

  // Dense-entity store: long committed chains, values mostly distinct so
  // the candidate stripes stay long after dedup.
  Rng rng(2026);
  VersionStore store(ValueVector(kEntities, 0));
  for (int v = 0; v < kVersionsPerEntity; ++v) {
    for (EntityId e = 0; e < kEntities; ++e) {
      store.Append(e, rng.UniformInt(0, kValueBound - 1), /*writer=*/v);
    }
    store.CommitWriter(v);
  }
  Predicate predicate = ChainPredicate(kEntities, kValueBound / 2);

  // Base values: every entity at its latest committed value; each clause is
  // striped over its highest entity's candidates — the exact shape of one
  // batched pruning step at full assignment depth.
  ValueVector base = store.LatestCommittedSnapshot();

  SeedMemo seed_memo;
  std::vector<uint64_t> clause_hashes;
  std::vector<std::vector<EntityId>> clause_entities;
  for (const Clause& clause : predicate.clauses()) {
    clause_hashes.push_back(CachedPredicate::HashClause(clause));
    std::set<EntityId> object = clause.Object();
    clause_entities.emplace_back(object.begin(), object.end());
  }
  const int num_clauses = static_cast<int>(predicate.clauses().size());

  LegResult seed, flat;
  std::vector<uint8_t> seen(static_cast<size_t>(kValueBound), 0);
  CandidateBuffer buffer;
  std::vector<uint8_t> stripe_out;

  // Leg A: seed pipeline. Clear() per round keeps every probe on the miss
  // path (first-validation / post-invalidation regime).
  for (int round = 0; round < kRounds; ++round) {
    seed_memo.Clear();
    int64_t t0 = NowUs();
    std::vector<std::vector<Value>> candidates = SeedGather(store);
    std::vector<uint8_t>& bits = seed.bits;
    if (round == 0) bits.clear();
    size_t cursor = 0;
    for (int c = 0; c < num_clauses; ++c) {
      EntityId striped = clause_entities[c].back();
      ValueVector values = base;
      for (Value v : candidates[striped]) {
        values[striped] = v;
        bool result =
            seed_memo.EvalClause(clause_hashes[c], predicate.clauses()[c],
                                 clause_entities[c], values);
        ++seed.evals;
        if (round == 0) {
          bits.push_back(result ? 1 : 0);
        } else {
          // Differential: later rounds must reproduce round 0 exactly.
          if (bits[cursor++] != (result ? 1 : 0)) return 1;
        }
      }
    }
    seed.us += NowUs() - t0;
  }

  // Leg B: flat pipeline over the same store.
  for (int round = 0; round < kRounds; ++round) {
    int64_t t0 = NowUs();
    FlatGather(store, &buffer, &seen, kValueBound);
    std::vector<uint8_t>& bits = flat.bits;
    if (round == 0) bits.clear();
    size_t cursor = 0;
    for (int c = 0; c < num_clauses; ++c) {
      EntityId striped = clause_entities[c].back();
      CandidateView view = buffer.view(striped);
      stripe_out.resize(static_cast<size_t>(view.size()));
      EvalClauseOverStripe(predicate.clauses()[c], base, striped, view.data,
                           view.size(), stripe_out.data());
      flat.evals += view.size();
      for (int32_t i = 0; i < view.size(); ++i) {
        uint8_t bit = stripe_out[static_cast<size_t>(i)] ? 1 : 0;
        if (round == 0) {
          bits.push_back(bit);
        } else if (bits[cursor++] != bit) {
          return 1;
        }
      }
    }
    flat.us += NowUs() - t0;
  }

  bool agree = seed.bits == flat.bits && seed.evals == flat.evals;
  double seed_ns = seed.evals > 0
                       ? 1000.0 * static_cast<double>(seed.us) /
                             static_cast<double>(seed.evals)
                       : 0.0;
  double flat_ns = flat.evals > 0
                       ? 1000.0 * static_cast<double>(flat.us) /
                             static_cast<double>(flat.evals)
                       : 0.0;
  double speedup =
      flat.us > 0
          ? static_cast<double>(seed.us) / static_cast<double>(flat.us)
          : 0.0;
  bool ok = agree && speedup >= 3.0;

  std::printf("Predicate-evaluation hot path (dense-entity workload).\n"
              "seed_path = chain copies + quadratic dedup + per-candidate "
              "memo probes (miss path);\nflat_path = in-place walk + "
              "columnar arena + striped batch eval, no memo.\n\n");
  std::printf("%9s %9s %7s | %11s %11s | %10s %10s | %9s | %7s\n",
              "entities", "versions", "rounds", "seed-us", "flat-us",
              "seed-ns/ev", "flat-ns/ev", "agreement", "speedup");
  std::printf("%9d %9d %7d | %11lld %11lld | %10.1f %10.1f | %9s | %6.1fx%s\n",
              kEntities, kVersionsPerEntity, kRounds,
              static_cast<long long>(seed.us),
              static_cast<long long>(flat.us), seed_ns, flat_ns,
              agree ? "exact" : "MISMATCH", speedup, ok ? "" : "  FAIL");
  std::printf("\nRESULT: %s — identical truth bits on every round%s.\n",
              ok ? "reproduced" : "FAILED",
              ok ? "; the flat path clears the 3x bar" : "");

  if (report != nullptr) {
    Json row = Json::Object();
    row["name"] = "eval_hotpath_miss";
    row["entities"] = kEntities;
    row["versions_per_entity"] = kVersionsPerEntity;
    row["rounds"] = kRounds;
    row["seed_us"] = seed.us;
    row["flat_us"] = flat.us;
    row["evaluations"] = seed.evals;
    row["seed_ns_per_conjunct"] = seed_ns;
    row["flat_ns_per_conjunct"] = flat_ns;
    row["speedup"] = speedup;
    row["agreement"] = agree;
    report->AddResult(std::move(row));
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace nonserial

int main(int argc, char** argv) {
  return nonserial::BenchMain(
      argc, argv, "eval_hotpath",
      [](const nonserial::BenchOptions&, nonserial::BenchReport* report) {
        return nonserial::Run(report) == 0;
      });
}
