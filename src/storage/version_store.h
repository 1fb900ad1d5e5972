#ifndef NONSERIAL_STORAGE_VERSION_STORE_H_
#define NONSERIAL_STORAGE_VERSION_STORE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "model/state.h"
#include "predicate/value.h"
#include "storage/wal.h"  // WalCommitHandle (returned by value).

namespace nonserial {

/// Writer id for the initial version of every entity (the paper's pseudo-
/// transaction t_0).
constexpr int kInitialWriter = -1;

/// One retained version of an entity, as observed at a point in time.
/// Versions are never physically removed (the history of every data item is
/// preserved — Section 2.4); rollback marks a version dead instead so
/// outstanding references stay valid.
struct Version {
  Value value = 0;
  int writer = kInitialWriter;  ///< Runtime transaction id that created it.
  bool committed = false;       ///< Writer has committed.
  bool dead = false;            ///< Rolled back; invisible to new requests.
};

/// A reference to a specific version: entity plus index in its chain.
struct VersionRef {
  EntityId entity = kInvalidEntity;
  int index = -1;

  bool valid() const { return entity != kInvalidEntity && index >= 0; }
  bool operator==(const VersionRef& other) const = default;
};

/// Multiversion storage: one append-only version chain per entity. This is
/// the concrete realization of the model's database state S (a set of
/// unique states): every prefix of committed versions corresponds to the
/// unique state a serial history would have produced, and mix-and-match
/// reads across chains realize version states.
///
/// Each chain is a contiguous vector of versions. Chains only grow, so a
/// version's index never changes and VersionRefs stay valid forever.
///
/// Thread safety: every method is safe to call concurrently; each one runs
/// under a single store mutex, so every result — AsDatabaseState and
/// LatestCommittedSnapshot included — is a coherent cut that never shows a
/// half-applied commit. The store's one writer in a run is the CEP monitor
/// (which calls it with its own mutex held); the lock order is CEP monitor
/// → store → WAL.
class VersionStore {
 public:
  /// Creates the store with one committed initial version per entity,
  /// authored by kInitialWriter.
  explicit VersionStore(ValueVector initial_values);

  /// Attaches a write-ahead log: from now on every Append / CommitWriter /
  /// RollbackWriter is logged before the mutation becomes visible, so a
  /// crash image (any log prefix) replays to a consistent committed state.
  /// Not owned; pass nullptr to detach. The initial versions are NOT
  /// logged — the log's own initial() vector covers them (recovery replays
  /// on top of it).
  void SetWal(WriteAheadLog* wal) { wal_ = wal; }
  WriteAheadLog* wal() const { return wal_; }

  int num_entities() const { return num_entities_; }

  /// Copy of one version (a copy, because its committed/dead flags may
  /// change after the call returns).
  Version At(VersionRef ref) const;
  Version VersionAt(EntityId e, int index) const;
  Value Read(VersionRef ref) const;

  /// Number of versions ever appended to `e` (live or dead). Monotonic;
  /// used by the protocol's optimistic validation as a cheap change stamp.
  int ChainSize(EntityId e) const;

  /// Consistent copy of the whole chain of `e` (tests and diagnostics).
  /// Hot loops use ForEachVersion instead — it walks the chain in place.
  std::vector<Version> ChainSnapshot(EntityId e) const;

  /// Allocation-free chain walk: invokes `fn(const Version&, int index)`
  /// for every version of `e`, in index order, with the store mutex held.
  /// `fn` must not call back into the store (the mutex is not recursive).
  template <typename Fn>
  void ForEachVersion(EntityId e, Fn&& fn) const {
    BoundsCheck(e);
    std::lock_guard<std::mutex> lock(mu_);
    const std::vector<Version>& chain = chains_[e];
    for (int i = 0; i < static_cast<int>(chain.size()); ++i) fn(chain[i], i);
  }

  /// Appends a new (uncommitted, live) version; returns its index.
  int Append(EntityId e, Value value, int writer);

  /// Index of the latest live version of `e` (committed or not).
  int LatestLiveIndex(EntityId e) const;

  /// Index of the latest committed live version of `e`.
  int LatestCommittedIndex(EntityId e) const;

  /// Latest live version of `e` authored by `writer`, if any.
  std::optional<int> LatestIndexBy(EntityId e, int writer) const;

  /// Marks all live versions authored by `writer` committed. Returns the
  /// WAL's durability handle for the commit record (null when no WAL is
  /// attached): the caller decides where to WaitDurable — outside any
  /// engine lock, so concurrent commits can share one group-commit flush.
  WalCommitHandle CommitWriter(int writer);

  /// Recovery-only bulk commit: marks every live version committed without
  /// logging. Replay appends only versions whose fate analysis already
  /// proved them committed, so one O(versions) sweep replaces the
  /// O(writers × entities × chain) per-writer CommitWriter loop that made
  /// long-log recovery quadratic. Never call on a store with a WAL
  /// attached.
  void MarkAllCommitted();

  /// Marks all uncommitted versions authored by `writer` dead (rollback).
  void RollbackWriter(int writer);

  /// Latest committed value per entity — the conventional notion of "the
  /// current database".
  ValueVector LatestCommittedSnapshot() const;

  /// The model-layer database state: one unique state per global sequence
  /// point of committed versions. For verification we expose the simpler
  /// set: all committed values per entity (mix-and-match candidates).
  /// A concurrent CommitWriter is observed either fully or not at all.
  DatabaseState AsDatabaseState() const;

  /// Total number of live versions across all chains.
  int64_t TotalLiveVersions() const;

  /// Garbage collection: marks dead every *committed* version that is
  /// neither the latest committed version of its entity nor pinned.
  /// Uncommitted versions are never collected (their writers are alive).
  /// `pinned` lists version references still assigned to active
  /// transactions (the protocol's X assignments); indices stay stable, so
  /// outstanding references to collected versions keep resolving — they
  /// are just no longer handed out. Returns the number collected.
  int64_t CollectObsolete(const std::vector<VersionRef>& pinned);

 private:
  void BoundsCheck(EntityId e) const;

  // Callers must hold mu_.
  int LatestCommittedIndexLocked(EntityId e) const;
  ValueVector LatestCommittedLocked() const;

  const int num_entities_;
  mutable std::mutex mu_;
  std::vector<std::vector<Version>> chains_;  // Guarded by mu_.
  WriteAheadLog* wal_ = nullptr;
};

}  // namespace nonserial

#endif  // NONSERIAL_STORAGE_VERSION_STORE_H_
