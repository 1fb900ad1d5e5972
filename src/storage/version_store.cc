#include "storage/version_store.h"

#include "common/logging.h"
#include "storage/wal.h"

namespace nonserial {

VersionStore::VersionStore(ValueVector initial_values)
    : num_entities_(static_cast<int>(initial_values.size())),
      chains_(initial_values.size()) {
  for (int e = 0; e < num_entities_; ++e) {
    chains_[e].push_back(Version{initial_values[e], kInitialWriter,
                                 /*committed=*/true, /*dead=*/false});
  }
}

void VersionStore::BoundsCheck(EntityId e) const {
  NONSERIAL_CHECK_GE(e, 0);
  NONSERIAL_CHECK_LT(e, num_entities());
}

Version VersionStore::At(VersionRef ref) const {
  return VersionAt(ref.entity, ref.index);
}

Version VersionStore::VersionAt(EntityId e, int index) const {
  BoundsCheck(e);
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<Version>& chain = chains_[e];
  NONSERIAL_CHECK_GE(index, 0);
  NONSERIAL_CHECK_LT(index, static_cast<int>(chain.size()));
  return chain[index];
}

Value VersionStore::Read(VersionRef ref) const { return At(ref).value; }

int VersionStore::ChainSize(EntityId e) const {
  BoundsCheck(e);
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(chains_[e].size());
}

std::vector<Version> VersionStore::ChainSnapshot(EntityId e) const {
  BoundsCheck(e);
  std::lock_guard<std::mutex> lock(mu_);
  return chains_[e];
}

int VersionStore::Append(EntityId e, Value value, int writer) {
  BoundsCheck(e);
  std::lock_guard<std::mutex> lock(mu_);
  // Logged under the store mutex so the log's per-entity append order
  // equals the chain order recovery will rebuild.
  if (wal_ != nullptr) wal_->LogAppend(e, value, writer);
  std::vector<Version>& chain = chains_[e];
  chain.push_back(Version{value, writer, /*committed=*/false,
                          /*dead=*/false});
  return static_cast<int>(chain.size()) - 1;
}

int VersionStore::LatestLiveIndex(EntityId e) const {
  BoundsCheck(e);
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<Version>& chain = chains_[e];
  for (int i = static_cast<int>(chain.size()) - 1; i >= 0; --i) {
    if (!chain[i].dead) return i;
  }
  NONSERIAL_CHECK(false) << "entity " << e << " has no live version";
  return -1;
}

int VersionStore::LatestCommittedIndexLocked(EntityId e) const {
  const std::vector<Version>& chain = chains_[e];
  for (int i = static_cast<int>(chain.size()) - 1; i >= 0; --i) {
    if (chain[i].committed && !chain[i].dead) return i;
  }
  NONSERIAL_CHECK(false) << "entity " << e << " has no committed version";
  return -1;
}

int VersionStore::LatestCommittedIndex(EntityId e) const {
  BoundsCheck(e);
  std::lock_guard<std::mutex> lock(mu_);
  return LatestCommittedIndexLocked(e);
}

std::optional<int> VersionStore::LatestIndexBy(EntityId e, int writer) const {
  BoundsCheck(e);
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<Version>& chain = chains_[e];
  for (int i = static_cast<int>(chain.size()) - 1; i >= 0; --i) {
    if (!chain[i].dead && chain[i].writer == writer) return i;
  }
  return std::nullopt;
}

WalCommitHandle VersionStore::CommitWriter(int writer) {
  // Write-ahead: the commit record hits the log before any flag flips, so
  // a crash either shows the writer fully committed (redo replays every
  // already-logged append) or not at all. Under group commit the record is
  // only STAGED here; the returned handle resolves at its batch's flush
  // epoch, and the in-memory flags may flip before durability. That is
  // safe for recovery because log order is FIFO: anything that reads this
  // writer's versions and commits logs its own commit record later in the
  // log, so no recovered prefix can keep a dependent while losing this
  // writer (downward closure survives early lock release).
  WalCommitHandle handle;
  if (wal_ != nullptr) handle = wal_->LogCommit(writer);
  std::lock_guard<std::mutex> lock(mu_);
  for (std::vector<Version>& chain : chains_) {
    for (Version& v : chain) {
      if (v.writer == writer && !v.dead) v.committed = true;
    }
  }
  return handle;
}

void VersionStore::MarkAllCommitted() {
  NONSERIAL_CHECK(wal_ == nullptr)
      << "MarkAllCommitted is a recovery-replay shortcut; it must not be "
         "used on a store that is logging";
  std::lock_guard<std::mutex> lock(mu_);
  for (std::vector<Version>& chain : chains_) {
    for (Version& v : chain) {
      if (!v.dead) v.committed = true;
    }
  }
}

void VersionStore::RollbackWriter(int writer) {
  if (wal_ != nullptr) wal_->LogRollback(writer);
  std::lock_guard<std::mutex> lock(mu_);
  for (std::vector<Version>& chain : chains_) {
    for (Version& v : chain) {
      if (v.writer == writer && !v.committed) v.dead = true;
    }
  }
}

ValueVector VersionStore::LatestCommittedLocked() const {
  ValueVector out(num_entities());
  for (EntityId e = 0; e < num_entities(); ++e) {
    out[e] = chains_[e][LatestCommittedIndexLocked(e)].value;
  }
  return out;
}

ValueVector VersionStore::LatestCommittedSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return LatestCommittedLocked();
}

DatabaseState VersionStore::AsDatabaseState() const {
  // One unique state per committed version depth: the state formed by the
  // committed prefix values. For verification purposes a simpler encoding
  // suffices: the initial state plus, per committed version, the latest
  // snapshot overlaid with that version's value.
  std::lock_guard<std::mutex> lock(mu_);
  DatabaseState db(num_entities());
  ValueVector latest = LatestCommittedLocked();
  db.Add(latest);
  for (EntityId e = 0; e < num_entities(); ++e) {
    for (const Version& v : chains_[e]) {
      if (!v.committed || v.dead || v.value == latest[e]) continue;
      ValueVector s = latest;
      s[e] = v.value;
      db.Add(std::move(s));
    }
  }
  return db;
}

int64_t VersionStore::CollectObsolete(const std::vector<VersionRef>& pinned) {
  std::vector<std::vector<bool>> is_pinned(num_entities());
  for (const VersionRef& ref : pinned) {
    if (ref.entity < 0 || ref.entity >= num_entities() || ref.index < 0) {
      continue;
    }
    std::vector<bool>& flags = is_pinned[ref.entity];
    if (ref.index >= static_cast<int>(flags.size())) {
      flags.resize(ref.index + 1, false);
    }
    flags[ref.index] = true;
  }
  int64_t collected = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (EntityId e = 0; e < num_entities(); ++e) {
    int latest = LatestCommittedIndexLocked(e);
    const std::vector<bool>& flags = is_pinned[e];
    std::vector<Version>& chain = chains_[e];
    for (int i = 0; i < static_cast<int>(chain.size()); ++i) {
      Version& v = chain[i];
      bool pinned_here = i < static_cast<int>(flags.size()) && flags[i];
      if (!v.committed || v.dead || i == latest || pinned_here) continue;
      v.dead = true;
      ++collected;
    }
  }
  return collected;
}

int64_t VersionStore::TotalLiveVersions() const {
  int64_t total = 0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::vector<Version>& chain : chains_) {
    for (const Version& v : chain) {
      if (!v.dead) ++total;
    }
  }
  return total;
}

}  // namespace nonserial
