#ifndef NONSERIAL_PROTOCOL_KS_LOCK_MANAGER_H_
#define NONSERIAL_PROTOCOL_KS_LOCK_MANAGER_H_

#include <mutex>
#include <set>
#include <vector>

#include "common/metrics.h"
#include "predicate/value.h"

namespace nonserial {

/// The lock modes of the paper's protocol (Figure 3): Rv (read for
/// validation), R (read), and W (write).
enum class KsLockMode : uint8_t { kRv, kR, kW };

/// Outcome of a lock request per the Figure 3 compatibility matrix.
enum class KsLockOutcome {
  kGranted,  ///< "true": lock granted.
  kBlocked,  ///< "false": requester blocks (only Rv/R vs an active W).
  kReEval    ///< "re-eval": granted, but existing readers must re-evaluate.
};

/// Lock table implementing the paper's unconventional compatibility matrix:
///
///            held:   Rv      R       W
///   requested Rv     true    true    false
///             R      true    true    false
///             W      re-eval re-eval true
///
/// Locks are placed on the entity (type), not on a version. W locks are
/// short — held only for the duration of one write — and never block on
/// anything; instead a W acquisition returns kReEval when readers hold
/// Rv/R locks so the protocol can run the Figure 4 re-evaluation routine.
///
/// Thread safety: every method runs under one table mutex, so each call —
/// ReleaseAll's sweep over every entity included — is atomic. The only
/// caller in a run is the CEP monitor, which already holds its own mutex.
class KsLockManager {
 public:
  /// Lock outcome counters (grants, blocks, re-evals) go to `metrics`, or
  /// to a sink the manager owns when it is null. Not owned; must outlive
  /// the manager.
  explicit KsLockManager(int num_entities, ProtocolMetrics* metrics = nullptr);

  /// Requests a lock in `mode` for `tx` on entity `e`, per the matrix.
  /// kGranted/kReEval record the lock; kBlocked records nothing.
  KsLockOutcome Acquire(int tx, EntityId e, KsLockMode mode);

  /// Upgrades an Rv lock to R (a read request). Returns kBlocked if a
  /// different transaction holds an active W on `e`; kGranted otherwise.
  /// The Rv lock must be held.
  KsLockOutcome UpgradeToRead(int tx, EntityId e);

  /// Releases one W hold of `tx` on `e` (end of the write operation).
  void ReleaseWrite(int tx, EntityId e);

  /// Releases every lock `tx` holds (termination).
  void ReleaseAll(int tx);

  bool HoldsRv(int tx, EntityId e) const;
  bool HoldsR(int tx, EntityId e) const;
  bool HasActiveWriter(EntityId e, int other_than = -1) const;

  /// Number of W holds `tx` currently has on `e` (diagnostics/tests).
  int WriteHolds(int tx, EntityId e) const;

  /// Current Rv and R holders of `e` (the re-evaluation audience).
  std::vector<int> Readers(EntityId e) const;

  int num_entities() const { return static_cast<int>(entities_.size()); }

 private:
  /// Per-entity lock state. rv/r are sets (one hold per transaction); w is
  /// a per-transaction hold count — one write operation in flight per
  /// increment, so a transaction writing the same entity twice holds two
  /// and each WriteDone releases exactly one.
  struct EntityLocks {
    std::set<int> rv;
    std::set<int> r;
    std::multiset<int> w;
  };

  // Caller must hold mu_.
  bool HasActiveWriterLocked(EntityId e, int other_than) const;

  mutable std::mutex mu_;
  std::vector<EntityLocks> entities_;  // Guarded by mu_.
  MetricsSink metrics_;
};

}  // namespace nonserial

#endif  // NONSERIAL_PROTOCOL_KS_LOCK_MANAGER_H_
