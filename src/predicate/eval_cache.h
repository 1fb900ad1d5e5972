#ifndef NONSERIAL_PREDICATE_EVAL_CACHE_H_
#define NONSERIAL_PREDICATE_EVAL_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "predicate/predicate.h"

namespace nonserial {

/// \file
/// Memoized conjunct evaluation for the scalar checks that re-evaluate the
/// same specifications over the same values: CEP's output-condition check
/// at commit and the formal verifier (see docs/ARCHITECTURE.md,
/// "incremental verification"). The assignment search does not use it: it
/// evaluates a clause over a whole candidate stripe in one vectorized pass
/// (predicate/batch_eval.h), which is cheaper than any probe.
///
/// A CNF predicate is an AND of conjuncts (clauses); each conjunct mentions
/// a small entity set (its *object*, in the paper's terminology). EvalCache
/// memoizes conjunct results so a repeated check is a hash probe instead of
/// an atom walk.

/// The FNV-1a hash constants the cache keys are built from.
namespace fnv {

constexpr uint64_t kOffset = 1469598103934665603ull;
constexpr uint64_t kPrime = 1099511628211ull;

/// Mixes the 8 bytes of `v` into `h`, little-end first (classic FNV-1a).
inline uint64_t Mix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kPrime;
  }
  return h;
}

/// Final avalanche (splitmix64) so shard selection uses well-mixed bits.
inline uint64_t Avalanche(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

}  // namespace fnv

/// Thread-safe memo of conjunct (clause) evaluations.
///
/// **Key.** An entry is keyed by the pair
/// (structural hash of the clause, fingerprint of the values of the
/// clause's entities). Because a clause's truth value is a pure function of
/// those values, a fingerprint match makes the cached result sound no
/// matter how the version store evolved in between, so entries never go
/// stale and need no invalidation. The differential fuzzer
/// (tests/incremental_verify_fuzz_test.cc) re-checks this claim against
/// from-scratch evaluation on every run.
///
/// **Concurrency.** The table is sharded by clause (well-mixed bits of the
/// clause's structural hash); each shard owns a mutex and a bounded
/// open-addressed slot array (an overflowing shard is dropped wholesale and
/// counted as invalidations). Any number of threads may evaluate
/// concurrently: CEP probes the cache at commit, and the verifier probes it
/// from the shared thread pool.
class EvalCache {
 public:
  /// `num_entities` is unused; kept because existing callers pass it.
  explicit EvalCache(int num_entities = 0);
  ~EvalCache();

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// Evaluates one clause over `values`, memoized.
  ///
  /// `clause_hash` must be the structural hash of `clause` (see
  /// CachedPredicate, which precomputes it) and `entities` the clause's
  /// entity set in ascending order; `values` must cover every id in
  /// `entities`.
  bool EvalClause(uint64_t clause_hash, const Clause& clause,
                  const std::vector<EntityId>& entities,
                  const ValueVector& values);

  /// Drops all entries and the cache counters of metrics() (test hygiene;
  /// not thread-safe).
  void Clear();

  /// Number of live entries across all shards (approximate under
  /// concurrent use).
  size_t size() const;

  /// Counts future probes into `metrics`: cache_hits, cache_misses, and
  /// cache_invalidations (entries dropped by shard overflow). Not owned;
  /// nullptr returns to the sink the cache owns.
  void SetMetrics(ProtocolMetrics* metrics) { metrics_.Attach(metrics); }
  /// The sink probes are counted into (never null).
  ProtocolMetrics* metrics() const { return metrics_.get(); }

 private:
  /// One open-addressed slot. key == 0 means empty (probe keys are
  /// avalanche-mixed and remapped away from 0, see SlotKey). clause_hash /
  /// fingerprint guard against 64-bit key collisions.
  struct Entry {
    uint64_t key = 0;
    uint64_t clause_hash = 0;
    uint64_t fingerprint = 0;
    bool result = false;
  };

  /// A cache shard: a flat, power-of-two, linear-probed slot array. Entries
  /// are never individually deleted (overflow clears the shard wholesale),
  /// so probing needs no tombstones: a run ends at the first empty slot.
  struct Shard {
    std::mutex mu;
    std::vector<Entry> slots;  ///< Power-of-two size; grown by rehash.
    size_t count = 0;          ///< Occupied slots.
  };

  static constexpr int kNumShards = 16;
  /// Per-shard entry bound; an overflowing shard is cleared wholesale.
  static constexpr size_t kMaxShardEntries = 1 << 16;
  /// First slot-array size for a shard (on its first insert).
  static constexpr size_t kInitialShardSlots = 256;

  /// The slot key for (clause_hash, fingerprint): avalanche-mixed, with 0
  /// remapped so it never collides with the empty-slot sentinel.
  static uint64_t SlotKey(uint64_t clause_hash, uint64_t fingerprint);

  /// The shard holding every entry of the clause with this structural hash.
  static size_t ShardIndex(uint64_t clause_hash);

  /// Finds the entry with `key`, or nullptr. Caller holds shard.mu.
  const Entry* ProbeLocked(const Shard& shard, uint64_t key) const;

  /// Inserts or overwrites (key -> entry), growing the slot array at 70%
  /// load and clearing the shard wholesale at the entry bound (dropped
  /// entries count as invalidations). Caller holds shard.mu.
  void InsertLocked(Shard& shard, uint64_t key, const Entry& entry);

  std::unique_ptr<Shard[]> shards_;
  MetricsSink metrics_;
};

/// Immutable per-predicate companion for EvalCache: the precomputed
/// structural hash and sorted entity list of every clause.
///
/// Construction walks the predicate once; evaluation then binds the *live*
/// predicate (which must be structurally identical to the one given at
/// construction — same clauses in the same order) so callers that move
/// their predicates around, as the protocol engine's per-transaction state
/// does, never hold a dangling pointer.
class CachedPredicate {
 public:
  /// Precomputes clause hashes/entity lists for `predicate` and binds the
  /// cache. `cache` is not owned and must outlive this object.
  CachedPredicate(const Predicate& predicate, EvalCache* cache);

  /// Memoized evaluation of clause `index` of `predicate` (which must be
  /// structurally identical to the construction-time predicate).
  bool EvalClause(const Predicate& predicate, int index,
                  const ValueVector& values) const;

  /// Memoized evaluation of the whole predicate (AND of its clauses).
  bool Eval(const Predicate& predicate, const ValueVector& values) const;

  /// Number of clauses captured at construction.
  int num_clauses() const { return static_cast<int>(clause_hashes_.size()); }

  /// Structural 64-bit hash of one clause — stable across copies and moves
  /// of the predicate, so cache entries survive engine restarts.
  static uint64_t HashClause(const Clause& clause);

 private:
  EvalCache* cache_;
  std::vector<uint64_t> clause_hashes_;
  std::vector<std::vector<EntityId>> clause_entities_;
};

}  // namespace nonserial

#endif  // NONSERIAL_PREDICATE_EVAL_CACHE_H_
