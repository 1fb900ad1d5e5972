#include "protocol/ks_lock_manager.h"

#include "common/failpoint.h"
#include "common/logging.h"

namespace nonserial {

KsLockManager::KsLockManager(int num_entities, ProtocolMetrics* metrics)
    : entities_(num_entities), metrics_(metrics) {}

bool KsLockManager::HasActiveWriterLocked(EntityId e, int other_than) const {
  for (int holder : entities_[e].w) {
    if (holder != other_than) return true;
  }
  return false;
}

KsLockOutcome KsLockManager::Acquire(int tx, EntityId e, KsLockMode mode) {
  NONSERIAL_CHECK_GE(e, 0);
  NONSERIAL_CHECK_LT(e, num_entities());
  std::lock_guard<std::mutex> lock(mu_);
  EntityLocks& locks = entities_[e];
  switch (mode) {
    case KsLockMode::kRv:
    case KsLockMode::kR: {
      // Failpoint: spurious lock-acquire refusal. Only read-side modes may
      // fire — the Figure 3 matrix has no blocking outcome for W, and the
      // engine's Write path has no blocked branch to take. The caller
      // registers as a waiter with no writer to wake it, so this also
      // exercises the drivers' lost-wakeup poll guard.
      if (NONSERIAL_FAILPOINT("ks.lock_acquire")) {
        metrics_->lock_blocks.Add();
        return KsLockOutcome::kBlocked;
      }
      if (HasActiveWriterLocked(e, /*other_than=*/tx)) {
        metrics_->lock_blocks.Add();
        return KsLockOutcome::kBlocked;
      }
      if (mode == KsLockMode::kRv) {
        locks.rv.insert(tx);
      } else {
        locks.r.insert(tx);
      }
      metrics_->lock_grants.Add();
      return KsLockOutcome::kGranted;
    }
    case KsLockMode::kW: {
      bool readers_present = false;
      for (int holder : locks.rv) {
        if (holder != tx) readers_present = true;
      }
      for (int holder : locks.r) {
        if (holder != tx) readers_present = true;
      }
      locks.w.insert(tx);
      (readers_present ? metrics_->lock_reevals : metrics_->lock_grants)
          .Add();
      return readers_present ? KsLockOutcome::kReEval
                             : KsLockOutcome::kGranted;
    }
  }
  return KsLockOutcome::kBlocked;
}

KsLockOutcome KsLockManager::UpgradeToRead(int tx, EntityId e) {
  NONSERIAL_CHECK_GE(e, 0);
  NONSERIAL_CHECK_LT(e, num_entities());
  std::lock_guard<std::mutex> lock(mu_);
  EntityLocks& locks = entities_[e];
  NONSERIAL_CHECK(locks.rv.contains(tx))
      << "read request without a validation lock (tx " << tx << ", entity "
      << e << ")";
  if (HasActiveWriterLocked(e, /*other_than=*/tx)) {
    metrics_->lock_blocks.Add();
    return KsLockOutcome::kBlocked;
  }
  locks.r.insert(tx);
  metrics_->lock_grants.Add();
  return KsLockOutcome::kGranted;
}

void KsLockManager::ReleaseWrite(int tx, EntityId e) {
  NONSERIAL_CHECK_GE(e, 0);
  NONSERIAL_CHECK_LT(e, num_entities());
  std::lock_guard<std::mutex> lock(mu_);
  std::multiset<int>& w = entities_[e].w;
  auto it = w.find(tx);
  NONSERIAL_CHECK(it != w.end());
  w.erase(it);  // Exactly one hold: tx may have other writes in flight.
}

void KsLockManager::ReleaseAll(int tx) {
  std::lock_guard<std::mutex> lock(mu_);
  for (EntityLocks& locks : entities_) {
    locks.rv.erase(tx);
    locks.r.erase(tx);
    auto range = locks.w.equal_range(tx);
    locks.w.erase(range.first, range.second);
  }
}

bool KsLockManager::HoldsRv(int tx, EntityId e) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entities_[e].rv.contains(tx);
}

bool KsLockManager::HoldsR(int tx, EntityId e) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entities_[e].r.contains(tx);
}

bool KsLockManager::HasActiveWriter(EntityId e, int other_than) const {
  std::lock_guard<std::mutex> lock(mu_);
  return HasActiveWriterLocked(e, other_than);
}

int KsLockManager::WriteHolds(int tx, EntityId e) const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(entities_[e].w.count(tx));
}

std::vector<int> KsLockManager::Readers(EntityId e) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<int> readers = entities_[e].rv;
  readers.insert(entities_[e].r.begin(), entities_[e].r.end());
  return std::vector<int>(readers.begin(), readers.end());
}

}  // namespace nonserial
