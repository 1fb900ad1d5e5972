#include "protocol/two_phase_locking.h"

#include <algorithm>

#include "common/logging.h"

namespace nonserial {

TwoPhaseLockingController::TwoPhaseLockingController(VersionStore* store,
                                                     Options options)
    : store_(store),
      options_(std::move(options)),
      num_groups_(static_cast<int>(options_.objects.size()) + 1),
      table_(store->num_entities() *
             (options_.predicatewise
                  ? static_cast<int>(options_.objects.size()) + 1
                  : 1)) {
  if (!options_.predicatewise) num_groups_ = 1;
  groups_of_entity_.resize(store_->num_entities());
  for (EntityId e = 0; e < store_->num_entities(); ++e) {
    if (!options_.predicatewise) {
      groups_of_entity_[e] = {0};
      continue;
    }
    for (size_t g = 0; g < options_.objects.size(); ++g) {
      if (options_.objects[g].contains(e)) {
        groups_of_entity_[e].push_back(static_cast<int>(g));
      }
    }
    if (groups_of_entity_[e].empty()) {
      // Catch-all group for entities mentioned in no conjunct.
      groups_of_entity_[e] = {num_groups_ - 1};
    }
  }
}

const std::vector<int>& TwoPhaseLockingController::GroupsOf(
    EntityId e) const {
  return groups_of_entity_[e];
}

int TwoPhaseLockingController::KeyFor(EntityId e, int group) const {
  return options_.predicatewise ? e * num_groups_ + group : e;
}

void TwoPhaseLockingController::Register(int tx, TxProfile profile) {
  if (tx >= static_cast<int>(txs_.size())) txs_.resize(tx + 1);
  txs_[tx].profile = std::move(profile);
}

ReqResult TwoPhaseLockingController::Begin(int tx) {
  TxState& state = txs_[tx];
  // Chained execution: a serializable baseline cannot let a successor
  // observe a predecessor's output before the predecessor commits.
  for (int pred : state.profile.predecessors) {
    if (!txs_[pred].committed) {
      commit_waiters_[pred].insert(tx);
      Emit(TraceEvent::Kind::kCommitWait, tx, pred);
      return ReqResult::kBlocked;
    }
  }
  state.running = true;
  state.own_writes.clear();
  state.reads.clear();
  state.ops_completed = 0;
  state.remaining_in_group.clear();
  state.future_writes.clear();
  auto it = options_.planned_ops.find(tx);
  if (options_.predicatewise) {
    NONSERIAL_CHECK(it != options_.planned_ops.end())
        << "predicate-wise 2PL needs planned ops for tx " << tx;
  }
  if (it != options_.planned_ops.end()) {
    for (const PlannedOp& op : it->second) {
      if (options_.predicatewise) {
        for (int g : GroupsOf(op.entity)) ++state.remaining_in_group[g];
      }
      if (options_.avoid_upgrades && op.is_write) {
        state.future_writes.insert(op.entity);
      }
    }
  }
  return ReqResult::kGranted;
}

bool TwoPhaseLockingController::WaitCycles(
    int requester, const std::vector<int>& holders) const {
  // DFS from each holder through waits_for_; a path back to the requester
  // means blocking would close a cycle.
  std::vector<int> stack(holders.begin(), holders.end());
  std::set<int> seen(holders.begin(), holders.end());
  while (!stack.empty()) {
    int current = stack.back();
    stack.pop_back();
    if (current == requester) return true;
    auto it = waits_for_.find(current);
    if (it == waits_for_.end()) continue;
    for (int next : it->second) {
      if (seen.insert(next).second) stack.push_back(next);
    }
  }
  return false;
}

ReqResult TwoPhaseLockingController::AcquireKeys(int tx, EntityId e,
                                                 SxLockTable::Mode mode) {
  // A retry recomputes the requester's waits-for edges from scratch; stale
  // edges from a previous blocking episode would manufacture phantom
  // deadlock cycles.
  waits_for_.erase(tx);
  std::vector<int> all_conflicts;
  for (int g : GroupsOf(e)) {
    int key = KeyFor(e, g);
    std::vector<int> conflicts;
    if (!table_.TryAcquire(tx, key, mode, &conflicts)) {
      all_conflicts.insert(all_conflicts.end(), conflicts.begin(),
                           conflicts.end());
      key_waiters_[key].insert(tx);
    }
  }
  if (all_conflicts.empty()) {
    Emit(TraceEvent::Kind::kLockGrant, tx, -1, e);
    return ReqResult::kGranted;
  }
  if (WaitCycles(tx, all_conflicts)) {
    ++stats_.deadlock_aborts;
    Emit(TraceEvent::Kind::kDeadlockVictim, tx, all_conflicts.front(), e);
    return ReqResult::kAborted;
  }
  ++stats_.lock_waits;
  waits_for_[tx].insert(all_conflicts.begin(), all_conflicts.end());
  Emit(TraceEvent::Kind::kLockBlock, tx, all_conflicts.front(), e);
  return ReqResult::kBlocked;
}

void TwoPhaseLockingController::MarkOpDone(int tx, EntityId e) {
  if (!options_.predicatewise) return;
  TxState& state = txs_[tx];
  for (int g : GroupsOf(e)) {
    auto it = state.remaining_in_group.find(g);
    NONSERIAL_CHECK(it != state.remaining_in_group.end());
    if (--it->second == 0) {
      // Done with this conjunct: shrink phase for this group starts now.
      for (int key : table_.KeysHeldBy(tx)) {
        if (key % num_groups_ == g) {
          table_.Release(tx, key);
          auto waiters = key_waiters_.find(key);
          if (waiters != key_waiters_.end()) {
            for (int waiter : waiters->second) Wake(waiter);
            key_waiters_.erase(waiters);
          }
          ++stats_.group_releases;
          Emit(TraceEvent::Kind::kGroupRelease, tx, g, e);
        }
      }
    }
  }
}

ReqResult TwoPhaseLockingController::Read(int tx, EntityId e, Value* out) {
  TxState& state = txs_[tx];
  NONSERIAL_CHECK(state.running);
  SxLockTable::Mode mode = state.future_writes.contains(e)
                               ? SxLockTable::Mode::kExclusive
                               : SxLockTable::Mode::kShared;
  ReqResult result = AcquireKeys(tx, e, mode);
  if (result != ReqResult::kGranted) return result;
  waits_for_.erase(tx);
  auto own = state.own_writes.find(e);
  *out = own != state.own_writes.end()
             ? own->second
             : store_->Read(VersionRef{e, store_->LatestCommittedIndex(e)});
  state.reads[e] = *out;
  Emit(TraceEvent::Kind::kRead, tx, -1, e, *out);
  MarkOpDone(tx, e);
  return ReqResult::kGranted;
}

ReqResult TwoPhaseLockingController::Write(int tx, EntityId e, Value value) {
  TxState& state = txs_[tx];
  NONSERIAL_CHECK(state.running);
  ReqResult result = AcquireKeys(tx, e, SxLockTable::Mode::kExclusive);
  if (result != ReqResult::kGranted) return result;
  waits_for_.erase(tx);
  store_->Append(e, value, tx);
  state.own_writes[e] = value;
  Emit(TraceEvent::Kind::kWrite, tx, -1, e, value);
  return ReqResult::kGranted;
}

void TwoPhaseLockingController::WriteDone(int tx, EntityId e) {
  // Write locks are held to commit under 2PL; WriteDone only feeds the
  // predicate-wise group-release accounting.
  MarkOpDone(tx, e);
}

ReqResult TwoPhaseLockingController::Commit(int tx) {
  TxState& state = txs_[tx];
  NONSERIAL_CHECK(state.running);
  ValueVector view = store_->LatestCommittedSnapshot();
  for (const auto& [e, v] : state.reads) view[e] = v;
  for (const auto& [e, v] : state.own_writes) view[e] = v;
  if (!state.profile.output.Eval(view)) return ReqResult::kAborted;
  store_->CommitWriter(tx);
  ReleaseAllLocks(tx);
  state.running = false;
  state.committed = true;
  auto waiters = commit_waiters_.find(tx);
  if (waiters != commit_waiters_.end()) {
    for (int waiter : waiters->second) Wake(waiter);
    commit_waiters_.erase(waiters);
  }
  Emit(TraceEvent::Kind::kCommitted, tx);
  return ReqResult::kGranted;
}

void TwoPhaseLockingController::Abort(int tx) {
  TxState& state = txs_[tx];
  store_->RollbackWriter(tx);
  ReleaseAllLocks(tx);
  waits_for_.erase(tx);
  // Erase-and-prune: emptied waiter sets must not stay behind as map
  // entries, or the maps grow without bound under abort/restart churn
  // (every lock key a transaction ever blocked on would leave a tombstone).
  for (auto it = key_waiters_.begin(); it != key_waiters_.end();) {
    it->second.erase(tx);
    it = it->second.empty() ? key_waiters_.erase(it) : std::next(it);
  }
  for (auto it = commit_waiters_.begin(); it != commit_waiters_.end();) {
    it->second.erase(tx);
    it = it->second.empty() ? commit_waiters_.erase(it) : std::next(it);
  }
  state.running = false;
  state.own_writes.clear();
  state.reads.clear();
  Emit(TraceEvent::Kind::kAborted, tx);
}

size_t TwoPhaseLockingController::WaiterFootprint() const {
  return key_waiters_.size() + commit_waiters_.size() + waits_for_.size();
}

void TwoPhaseLockingController::ReleaseAllLocks(int tx) {
  for (int key : table_.ReleaseAll(tx)) {
    auto waiters = key_waiters_.find(key);
    if (waiters != key_waiters_.end()) {
      for (int waiter : waiters->second) Wake(waiter);
      key_waiters_.erase(waiters);
    }
  }
}

void TwoPhaseLockingController::Wake(int tx) { wakeups_.insert(tx); }

std::vector<int> TwoPhaseLockingController::TakeWakeups() {
  std::vector<int> out(wakeups_.begin(), wakeups_.end());
  wakeups_.clear();
  return out;
}

std::vector<int> TwoPhaseLockingController::TakeForcedAborts() { return {}; }

}  // namespace nonserial
