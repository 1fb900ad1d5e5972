#ifndef NONSERIAL_PREDICATE_EVAL_CACHE_H_
#define NONSERIAL_PREDICATE_EVAL_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "predicate/predicate.h"

namespace nonserial {

/// \file
/// Memoized conjunct evaluation — the incremental half of the validation
/// fast path (see docs/ARCHITECTURE.md, "incremental verification").
///
/// A CNF predicate is an AND of conjuncts (clauses); each conjunct mentions
/// a small entity set (its *object*, in the paper's terminology). During a
/// validation rescan, the assignment search re-evaluates the same conjuncts
/// over mostly unchanged version values, and the formal verifier re-checks
/// the same input/output specifications after every crash-recovery cycle.
/// EvalCache memoizes those evaluations so repeated validation is a hash
/// probe instead of an atom walk.

/// Thread-safe memo of conjunct (clause) evaluations.
///
/// **Key.** An entry is keyed by the pair
/// (structural hash of the clause, fingerprint of the values of the
/// clause's entities). Because a clause's truth value is a pure function of
/// those values, a fingerprint match makes the cached result sound no
/// matter how the version store evolved in between — epochs (below) are a
/// freshness discipline, not a correctness requirement. The differential
/// fuzzer (tests/incremental_verify_fuzz_test.cc) re-checks this claim
/// against from-scratch evaluation on every run.
///
/// **Epoch invalidation.** Each entity carries an epoch counter; installing
/// or rolling back a version of entity `e` bumps `e`'s epoch (the protocol
/// engine calls BumpEntity from Write and Abort). An entry records the sum
/// of its entities' epochs at insertion time; a later probe whose current
/// epoch sum differs treats the entry as stale, recomputes, and counts an
/// invalidation. This keeps the cache from serving results across store
/// generations (e.g. across a crash-recovery replay) and gives the metrics
/// layer a precise invalidation signal.
///
/// **Concurrency.** The table is sharded *by clause* (well-mixed bits of
/// the clause's structural hash); each shard owns a mutex and a bounded
/// open-addressed slot array (overflowing shards are dropped wholesale and
/// counted as invalidations). Clause sharding means a whole candidate
/// stripe lives in one shard — EvalClauseStripe takes one lock per stripe
/// and walks one contiguous table — at the cost of serializing concurrent
/// evaluations of the *same* clause (different clauses still spread across
/// shards). Entity epochs are relaxed atomics. Any number of threads may
/// evaluate concurrently — the CEP engine probes the cache from its
/// *unlocked* optimistic-search window, and the verifier probes it from
/// the shared thread pool.
class EvalCache {
 public:
  /// Constructs a cache sized for `num_entities` dense entity ids (the
  /// epoch table grows on demand via EnsureEntities).
  explicit EvalCache(int num_entities = 0);
  ~EvalCache();

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// Grows the epoch table to cover entity ids [0, n). Safe under
  /// concurrent use: the table is published through an atomic pointer
  /// (growth serializes on an internal mutex; retired tables stay alive
  /// for the cache's lifetime, so concurrent EpochSum probes never read
  /// freed memory). A BumpEntity racing the growth copy may land on the
  /// outgoing table and be lost — benign, because cache keys are
  /// value-fingerprint-sound; epochs are a freshness discipline, not a
  /// correctness requirement (see the class comment).
  void EnsureEntities(int n);

  /// Evaluates one clause over `values`, memoized.
  ///
  /// `clause_hash` must be the structural hash of `clause` (see
  /// CachedPredicate, which precomputes it) and `entities` the clause's
  /// entity set in ascending order; `values` must cover every id in
  /// `entities`.
  bool EvalClause(uint64_t clause_hash, const Clause& clause,
                  const std::vector<EntityId>& entities,
                  const ValueVector& values);

  /// Batch (stripe) variant of EvalClause: evaluates `clause` once per
  /// candidate value of `striped_entity` — out[i] is the clause's value
  /// with values[striped_entity] replaced by stripe[i], every other entity
  /// read from `values`. Produces exactly the keys EvalClause would (so
  /// stripe probes hit entries the scalar path inserted and vice versa),
  /// but fingerprints are batched, the shard lock is taken ONCE for the
  /// whole stripe (sharding is by clause), the miss evaluations collapse
  /// into one auto-vectorized pass over the contiguous stripe
  /// (predicate/batch_eval.h), and each candidate resolves — hit, stale,
  /// or insert — in a single prefetched slot walk. No per-candidate
  /// allocation.
  void EvalClauseStripe(uint64_t clause_hash, const Clause& clause,
                        const std::vector<EntityId>& entities,
                        const ValueVector& values, EntityId striped_entity,
                        const Value* stripe, int32_t n, uint8_t* out);

  /// Epoch invalidation hook: a version of `e` was installed or rolled
  /// back. Entries over `e` become stale (they are replaced on their next
  /// probe). Ids beyond the epoch table invalidate the whole cache instead.
  void BumpEntity(EntityId e);

  /// Invalidates every entry at once (bumps the global epoch). Used when a
  /// whole store generation is discarded, e.g. on crash recovery.
  void InvalidateAll();

  /// Drops all entries, the epoch-bump count and the cache counters of
  /// metrics() (test hygiene; not thread-safe).
  void Clear();

  /// BumpEntity / InvalidateAll calls so far.
  int64_t epoch_bumps() const {
    return epoch_bumps_.load(std::memory_order_relaxed);
  }

  /// Number of live entries across all shards (approximate under
  /// concurrent use).
  size_t size() const;

  /// Counts future probes into `metrics`: cache_hits, cache_misses, and
  /// cache_invalidations (stale entries replaced plus entries dropped by
  /// shard overflow). Not owned; nullptr returns to the sink the cache owns.
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
    uint64_t epoch_sum = 0;
    bool result = false;
  };

  /// A cache shard: a flat, power-of-two, linear-probed slot array. Entries
  /// are never individually deleted (staleness is detected by epoch_sum and
  /// overwritten in place; overflow clears the shard wholesale), so probing
  /// needs no tombstones — a run ends at the first empty slot. Flat slots
  /// replace the former unordered_map: no per-insert allocation on the miss
  /// path, and a probe touches one cache line instead of chasing buckets.
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

  /// Immutable-size epoch array published through epoch_table_. Growth
  /// installs a larger copy; outgoing tables are kept alive in tables_
  /// (geometric growth bounds them to O(log entities)), so lock-free
  /// EpochSum/BumpEntity probes racing a growth never touch freed memory.
  struct EpochTable {
    explicit EpochTable(int n) : size(n), epochs(new std::atomic<uint64_t>[n]) {
      for (int i = 0; i < n; ++i) {
        epochs[i].store(0, std::memory_order_relaxed);
      }
    }
    const int size;
    std::unique_ptr<std::atomic<uint64_t>[]> epochs;
  };

  uint64_t EpochSum(const std::vector<EntityId>& entities) const;

  /// The slot key for (clause_hash, fingerprint): avalanche-mixed, with 0
  /// remapped so it never collides with the empty-slot sentinel.
  static uint64_t SlotKey(uint64_t clause_hash, uint64_t fingerprint);

  /// The shard holding every entry of the clause with this structural hash
  /// (sharding is by clause; see the class comment).
  static size_t ShardIndex(uint64_t clause_hash);

  /// Finds the entry with `key`, or nullptr. Caller holds shard.mu.
  const Entry* ProbeLocked(const Shard& shard, uint64_t key) const;

  /// Grows the slot array until `n` more inserts stay under 70% load, so a
  /// subsequent batch of walks never rehashes mid-stripe (and a walk ending
  /// at an empty slot may insert right there). Caller holds shard.mu.
  void ReserveLocked(Shard& shard, size_t n);

  /// Inserts or overwrites (key -> entry), growing the slot array at 70%
  /// load and clearing the shard wholesale at the entry bound (dropped
  /// entries count as invalidations). Caller holds shard.mu.
  void InsertLocked(Shard& shard, uint64_t key, const Entry& entry);

  std::unique_ptr<Shard[]> shards_;
  /// All epoch tables ever created (last = live); guarded by grow_mu_.
  std::vector<std::unique_ptr<EpochTable>> tables_;
  std::mutex grow_mu_;
  std::atomic<EpochTable*> epoch_table_{nullptr};
  std::atomic<uint64_t> global_epoch_{0};

  std::atomic<int64_t> epoch_bumps_{0};

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

  /// Batch variant: memoized evaluation of clause `index` for every
  /// candidate in the contiguous stripe (see EvalCache::EvalClauseStripe).
  void EvalClauseStripe(const Predicate& predicate, int index,
                        const ValueVector& values, EntityId striped_entity,
                        const Value* stripe, int32_t n, uint8_t* out) const;

  /// Entity set of clause `index`, ascending (precomputed at construction).
  const std::vector<EntityId>& ClauseEntities(int index) const {
    return clause_entities_[index];
  }

  /// Memoized evaluation of the whole predicate (AND of its clauses).
  bool Eval(const Predicate& predicate, const ValueVector& values) const;

  /// The bound cache (never null).
  EvalCache* cache() const { return cache_; }

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
