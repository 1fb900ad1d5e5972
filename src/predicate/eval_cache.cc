#include "predicate/eval_cache.h"

#include <algorithm>

#include "common/logging.h"
#include "predicate/batch_eval.h"

namespace nonserial {
namespace {

uint64_t HashTerm(uint64_t h, const Term& term) {
  h = fnv::Mix(h, term.is_entity ? 1 : 0);
  h = fnv::Mix(h, term.is_entity ? static_cast<uint64_t>(term.entity)
                                 : static_cast<uint64_t>(term.constant));
  return h;
}

}  // namespace

uint64_t CachedPredicate::HashClause(const Clause& clause) {
  uint64_t h = fnv::kOffset;
  for (const Atom& atom : clause.atoms()) {
    h = HashTerm(h, atom.lhs);
    h = fnv::Mix(h, static_cast<uint64_t>(atom.op));
    h = HashTerm(h, atom.rhs);
  }
  return h;
}

EvalCache::EvalCache(int num_entities) : shards_(new Shard[kNumShards]) {
  EnsureEntities(std::max(num_entities, 0));
}

EvalCache::~EvalCache() = default;

void EvalCache::EnsureEntities(int n) {
  std::lock_guard<std::mutex> lock(grow_mu_);
  EpochTable* current = epoch_table_.load(std::memory_order_relaxed);
  if (current != nullptr && n <= current->size) return;
  // Grow geometrically so the retained outgoing tables stay O(log n).
  int grown_size = n;
  if (current != nullptr) grown_size = std::max(grown_size, current->size * 2);
  auto grown = std::make_unique<EpochTable>(grown_size);
  if (current != nullptr) {
    for (int e = 0; e < current->size; ++e) {
      grown->epochs[e].store(
          current->epochs[e].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
  }
  // Publish, keeping the outgoing table alive: a concurrent EpochSum that
  // loaded the old pointer may still be reading it. A BumpEntity that
  // lands on the old table after the copy above is lost — benign, because
  // entries are value-fingerprint-keyed (see header).
  epoch_table_.store(grown.get(), std::memory_order_release);
  tables_.push_back(std::move(grown));
}

uint64_t EvalCache::EpochSum(const std::vector<EntityId>& entities) const {
  const EpochTable* table = epoch_table_.load(std::memory_order_acquire);
  uint64_t sum = global_epoch_.load(std::memory_order_relaxed);
  for (EntityId e : entities) {
    if (e >= 0 && e < table->size) {
      sum += table->epochs[e].load(std::memory_order_relaxed);
    }
  }
  return sum;
}

uint64_t EvalCache::SlotKey(uint64_t clause_hash, uint64_t fingerprint) {
  uint64_t key = fnv::Avalanche(clause_hash ^ (fingerprint * fnv::kPrime));
  return key == 0 ? 1 : key;
}

size_t EvalCache::ShardIndex(uint64_t clause_hash) {
  return fnv::Avalanche(clause_hash) % kNumShards;
}

const EvalCache::Entry* EvalCache::ProbeLocked(const Shard& shard,
                                               uint64_t key) const {
  if (shard.slots.empty()) return nullptr;
  const size_t mask = shard.slots.size() - 1;
  for (size_t i = key & mask;; i = (i + 1) & mask) {
    const Entry& slot = shard.slots[i];
    if (slot.key == key) return &slot;
    if (slot.key == 0) return nullptr;
  }
}

void EvalCache::ReserveLocked(Shard& shard, size_t n) {
  if (shard.slots.empty()) shard.slots.resize(kInitialShardSlots);
  while ((shard.count + n) * 10 >= shard.slots.size() * 7) {
    std::vector<Entry> old = std::move(shard.slots);
    shard.slots.assign(old.size() * 2, Entry{});
    const size_t mask = shard.slots.size() - 1;
    for (const Entry& e : old) {
      if (e.key == 0) continue;
      size_t i = e.key & mask;
      while (shard.slots[i].key != 0) i = (i + 1) & mask;
      shard.slots[i] = e;
    }
  }
}

void EvalCache::InsertLocked(Shard& shard, uint64_t key, const Entry& entry) {
  // Places an entry into a table known to have a free run for it (no bound
  // or growth checks); overwrites an existing slot with the same key.
  // Returns true if a new slot was occupied.
  auto place = [](std::vector<Entry>& slots, const Entry& e) {
    const size_t mask = slots.size() - 1;
    for (size_t i = e.key & mask;; i = (i + 1) & mask) {
      if (slots[i].key == e.key) {
        slots[i] = e;
        return false;
      }
      if (slots[i].key == 0) {
        slots[i] = e;
        return true;
      }
    }
  };
  if (shard.slots.empty()) shard.slots.resize(kInitialShardSlots);
  if (shard.count >= kMaxShardEntries) {
    // Bound reached: drop the shard wholesale (simple and rare; entries
    // re-insert on their next evaluation).
    metrics_->cache_invalidations.Add(static_cast<int64_t>(shard.count));
    std::fill(shard.slots.begin(), shard.slots.end(), Entry{});
    shard.count = 0;
  } else if ((shard.count + 1) * 10 >= shard.slots.size() * 7) {
    // 70% load: double and rehash (linear probing degrades past that).
    std::vector<Entry> old = std::move(shard.slots);
    shard.slots.assign(old.size() * 2, Entry{});
    for (const Entry& e : old) {
      if (e.key != 0) place(shard.slots, e);
    }
  }
  Entry to_place = entry;
  to_place.key = key;
  if (place(shard.slots, to_place)) ++shard.count;
}

bool EvalCache::EvalClause(uint64_t clause_hash, const Clause& clause,
                           const std::vector<EntityId>& entities,
                           const ValueVector& values) {
  uint64_t fingerprint = fnv::kOffset;
  for (EntityId e : entities) {
    fingerprint = fnv::Mix(fingerprint, static_cast<uint64_t>(values[e]));
  }
  uint64_t epoch_sum = EpochSum(entities);
  uint64_t key = SlotKey(clause_hash, fingerprint);
  Shard& shard = shards_[ShardIndex(clause_hash)];

  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const Entry* entry = ProbeLocked(shard, key);
    if (entry != nullptr && entry->clause_hash == clause_hash &&
        entry->fingerprint == fingerprint) {
      if (entry->epoch_sum == epoch_sum) {
        metrics_->cache_hits.Add();
        return entry->result;
      }
      metrics_->cache_invalidations.Add();
    }
  }

  bool result = clause.Eval(values);
  metrics_->cache_misses.Add();
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    InsertLocked(shard, key,
                 Entry{/*key=*/0, clause_hash, fingerprint, epoch_sum,
                       result});
  }
  return result;
}

void EvalCache::EvalClauseStripe(uint64_t clause_hash, const Clause& clause,
                                 const std::vector<EntityId>& entities,
                                 const ValueVector& values,
                                 EntityId striped_entity, const Value* stripe,
                                 int32_t n, uint8_t* out) {
  if (n <= 0) return;
  // Fingerprint split around the striped entity: the prefix over the
  // entities ordered before it is shared by every candidate; the suffix
  // values are mixed per candidate after the stripe value.
  uint64_t prefix = fnv::kOffset;
  // Per-call scratch; thread_local so the hot path allocates only on the
  // first stripes a thread evaluates, then reuses capacity.
  thread_local std::vector<Value> suffix;
  suffix.clear();
  bool past_striped = false;
  for (EntityId e : entities) {
    if (e == striped_entity) {
      past_striped = true;
      continue;
    }
    if (past_striped) {
      suffix.push_back(values[e]);
    } else {
      prefix = fnv::Mix(prefix, static_cast<uint64_t>(values[e]));
    }
  }
  if (!past_striped) {
    // The striped entity is not in the clause's object: the clause value is
    // independent of the candidate. One scalar memoized evaluation covers
    // the whole stripe.
    uint8_t r = EvalClause(clause_hash, clause, entities, values) ? 1 : 0;
    for (int32_t i = 0; i < n; ++i) out[i] = r;
    return;
  }

  thread_local std::vector<uint64_t> fingerprints;
  thread_local std::vector<uint64_t> keys;
  thread_local std::vector<uint8_t> evaluated;
  fingerprints.resize(n);
  keys.resize(n);
  FingerprintStripe(prefix, stripe, n, suffix.data(),
                    static_cast<int32_t>(suffix.size()),
                    fingerprints.data());
  for (int32_t i = 0; i < n; ++i) {
    keys[i] = SlotKey(clause_hash, fingerprints[i]);
  }
  uint64_t epoch_sum = EpochSum(entities);

  // Speculative miss sweep: ONE vectorized evaluation pass over the whole
  // contiguous stripe (predicate/batch_eval.h). At ~1 ns/candidate it is
  // cheaper than tracking which candidates hit, and it lets the table pass
  // below resolve every candidate — hit, stale, or miss — in a single
  // locked walk.
  evaluated.resize(n);
  EvalClauseOverStripe(clause, values, striped_entity, stripe, n,
                       evaluated.data());

  // Single table pass. Sharding is by clause, so the whole stripe lives in
  // one shard: one lock per stripe, and the slot walks prefetch ahead over
  // the stripe's key sequence. The table is pre-grown for n inserts, so a
  // walk that ends at an empty slot can insert right there — probe and
  // insert share one traversal.
  int64_t hits = 0;
  int64_t stale = 0;
  Shard& shard = shards_[ShardIndex(clause_hash)];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.count >= kMaxShardEntries) {
      // Bound reached: drop the shard wholesale (simple and rare; entries
      // re-insert on their next evaluation).
      metrics_->cache_invalidations.Add(static_cast<int64_t>(shard.count));
      std::fill(shard.slots.begin(), shard.slots.end(), Entry{});
      shard.count = 0;
    }
    ReserveLocked(shard, static_cast<size_t>(n));
    const size_t mask = shard.slots.size() - 1;
    for (int32_t i = 0; i < n; ++i) {
      if (i + 8 < n) {
        __builtin_prefetch(&shard.slots[keys[i + 8] & mask]);
      }
      size_t si = keys[i] & mask;
      while (shard.slots[si].key != 0 && shard.slots[si].key != keys[i]) {
        si = (si + 1) & mask;
      }
      Entry& slot = shard.slots[si];
      if (slot.key == keys[i] && slot.clause_hash == clause_hash &&
          slot.fingerprint == fingerprints[i]) {
        if (slot.epoch_sum == epoch_sum) {
          out[i] = slot.result ? 1 : 0;
          ++hits;
          continue;
        }
        ++stale;  // Falls through: refresh the slot in place.
      }
      if (slot.key == 0) ++shard.count;
      slot = Entry{keys[i], clause_hash, fingerprints[i], epoch_sum,
                   evaluated[i] != 0};
      out[i] = evaluated[i];
    }
  }

  if (hits > 0) metrics_->cache_hits.Add(hits);
  if (stale > 0) metrics_->cache_invalidations.Add(stale);
  if (n > hits) metrics_->cache_misses.Add(n - hits);
}

void EvalCache::BumpEntity(EntityId e) {
  epoch_bumps_.fetch_add(1, std::memory_order_relaxed);
  const EpochTable* table = epoch_table_.load(std::memory_order_acquire);
  if (e >= 0 && e < table->size) {
    table->epochs[e].fetch_add(1, std::memory_order_relaxed);
  } else {
    // Unknown id: be conservative and age out everything.
    global_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
}

void EvalCache::InvalidateAll() {
  epoch_bumps_.fetch_add(1, std::memory_order_relaxed);
  global_epoch_.fetch_add(1, std::memory_order_relaxed);
}

void EvalCache::Clear() {
  for (int s = 0; s < kNumShards; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    std::fill(shards_[s].slots.begin(), shards_[s].slots.end(), Entry{});
    shards_[s].count = 0;
  }
  metrics_->cache_hits.Reset();
  metrics_->cache_misses.Reset();
  metrics_->cache_invalidations.Reset();
  epoch_bumps_.store(0, std::memory_order_relaxed);
}

size_t EvalCache::size() const {
  size_t total = 0;
  for (int s = 0; s < kNumShards; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mu);
    total += shards_[s].count;
  }
  return total;
}

CachedPredicate::CachedPredicate(const Predicate& predicate, EvalCache* cache)
    : cache_(cache) {
  NONSERIAL_CHECK(cache != nullptr);
  const std::vector<Clause>& clauses = predicate.clauses();
  clause_hashes_.reserve(clauses.size());
  clause_entities_.reserve(clauses.size());
  int max_entity = -1;
  for (const Clause& clause : clauses) {
    clause_hashes_.push_back(HashClause(clause));
    std::set<EntityId> object = clause.Object();
    clause_entities_.emplace_back(object.begin(), object.end());
    if (!object.empty()) max_entity = std::max(max_entity, *object.rbegin());
  }
  cache_->EnsureEntities(max_entity + 1);
}

bool CachedPredicate::EvalClause(const Predicate& predicate, int index,
                                 const ValueVector& values) const {
  NONSERIAL_CHECK_GE(index, 0);
  NONSERIAL_CHECK_LT(index, num_clauses());
  return cache_->EvalClause(clause_hashes_[index],
                            predicate.clauses()[index],
                            clause_entities_[index], values);
}

void CachedPredicate::EvalClauseStripe(const Predicate& predicate, int index,
                                       const ValueVector& values,
                                       EntityId striped_entity,
                                       const Value* stripe, int32_t n,
                                       uint8_t* out) const {
  NONSERIAL_CHECK_GE(index, 0);
  NONSERIAL_CHECK_LT(index, num_clauses());
  cache_->EvalClauseStripe(clause_hashes_[index], predicate.clauses()[index],
                           clause_entities_[index], values, striped_entity,
                           stripe, n, out);
}

bool CachedPredicate::Eval(const Predicate& predicate,
                           const ValueVector& values) const {
  NONSERIAL_CHECK_EQ(static_cast<int>(predicate.clauses().size()),
                     num_clauses())
      << "CachedPredicate bound to a structurally different predicate";
  for (int c = 0; c < num_clauses(); ++c) {
    if (!EvalClause(predicate, c, values)) return false;
  }
  return true;
}

}  // namespace nonserial
