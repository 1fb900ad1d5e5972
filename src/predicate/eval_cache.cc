#include "predicate/eval_cache.h"

#include <algorithm>

#include "common/logging.h"

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

EvalCache::EvalCache(int /*num_entities*/) : shards_(new Shard[kNumShards]) {}

EvalCache::~EvalCache() = default;

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
  uint64_t key = SlotKey(clause_hash, fingerprint);
  Shard& shard = shards_[ShardIndex(clause_hash)];

  {
    std::lock_guard<std::mutex> lock(shard.mu);
    const Entry* entry = ProbeLocked(shard, key);
    if (entry != nullptr && entry->clause_hash == clause_hash &&
        entry->fingerprint == fingerprint) {
      metrics_->cache_hits.Add();
      return entry->result;
    }
  }

  bool result = clause.Eval(values);
  metrics_->cache_misses.Add();
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    InsertLocked(shard, key,
                 Entry{/*key=*/0, clause_hash, fingerprint, result});
  }
  return result;
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
  for (const Clause& clause : clauses) {
    clause_hashes_.push_back(HashClause(clause));
    std::set<EntityId> object = clause.Object();
    clause_entities_.emplace_back(object.begin(), object.end());
  }
}

bool CachedPredicate::EvalClause(const Predicate& predicate, int index,
                                 const ValueVector& values) const {
  NONSERIAL_CHECK_GE(index, 0);
  NONSERIAL_CHECK_LT(index, num_clauses());
  return cache_->EvalClause(clause_hashes_[index],
                            predicate.clauses()[index],
                            clause_entities_[index], values);
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
