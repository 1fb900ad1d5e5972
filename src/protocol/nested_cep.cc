#include "protocol/nested_cep.h"

#include "common/logging.h"

namespace nonserial {

NestedCepController::NestedCepController(VersionStore* top_store,
                                         Options options)
    : top_store_(top_store),
      options_(std::move(options)),
      top_cep_(top_store) {
  groups_.resize(options_.groups.size());
  // Register the groups as the top scope's transactions.
  for (size_t g = 0; g < options_.groups.size(); ++g) {
    const NestedGroup& group = options_.groups[g];
    TxProfile profile;
    profile.name = group.name;
    profile.input = group.input;
    profile.output = group.output;
    profile.predecessors = group.predecessors;
    top_cep_.Register(static_cast<int>(g), profile);
  }
  // A group's members are every transaction mapped to it, registered yet
  // or not: the group commits only once all of them have.
  for (int tx = 0; tx < static_cast<int>(options_.group_of_tx.size()); ++tx) {
    groups_[GroupOf(tx)].members.insert(tx);
  }
}

void NestedCepController::SetObserver(TraceSink* sink) {
  ConcurrencyController::SetObserver(sink);
  top_cep_.SetObserver(sink);
  for (GroupState& group : groups_) {
    if (group.cep != nullptr) group.cep->SetObserver(sink);
  }
}

int NestedCepController::GroupOf(int tx) const {
  NONSERIAL_CHECK_LT(tx, static_cast<int>(options_.group_of_tx.size()))
      << "transaction " << tx << " has no group mapping";
  int g = options_.group_of_tx[tx];
  NONSERIAL_CHECK_GE(g, 0);
  NONSERIAL_CHECK_LT(g, static_cast<int>(groups_.size()));
  return g;
}

bool NestedCepController::GroupActive(int g) const {
  return groups_[g].phase == GroupPhase::kActive;
}

bool NestedCepController::GroupCommitted(int g) const {
  return groups_[g].phase == GroupPhase::kCommitted;
}

void NestedCepController::Register(int tx, TxProfile profile) {
  if (tx >= static_cast<int>(profiles_.size())) profiles_.resize(tx + 1);
  int g = GroupOf(tx);
  for (int pred : profile.predecessors) {
    NONSERIAL_CHECK_EQ(GroupOf(pred), g)
        << "member partial orders must stay within a group; cross-group "
           "ordering belongs to the group predecessors";
  }
  registered_.insert(tx);
  profiles_[tx] = std::move(profile);
  // Sessions register a member when it begins, possibly after its group's
  // scope opened.
  GroupState& group = groups_[g];
  if (group.phase == GroupPhase::kActive) {
    group.cep->Register(tx, profiles_[tx]);
  }
}

ReqResult NestedCepController::EnsureGroupStarted(int g, int tx) {
  GroupState& group = groups_[g];
  switch (group.phase) {
    case GroupPhase::kActive:
      return ReqResult::kGranted;
    case GroupPhase::kCommitted:
      NONSERIAL_CHECK(false) << "member " << tx << " begins after group "
                             << g << " committed";
      return ReqResult::kAborted;
    case GroupPhase::kIdle:
      break;
  }
  // Top-level definition + validation of the group transaction.
  ReqResult result = top_cep_.Begin(g);
  if (result != ReqResult::kGranted) {
    if (result == ReqResult::kBlocked) group.begin_waiters.insert(tx);
    return result;
  }
  // Consume the assigned input versions at the top level: the group has
  // observably "read" X(G), so a later predecessor write is a genuine
  // partial-order invalidation (Figure 4's abort branch) at this level.
  const ValueVector* seed = top_cep_.InputView(g);
  NONSERIAL_CHECK(seed != nullptr);
  group.seed = *seed;
  for (EntityId e : options_.groups[g].input.Entities()) {
    Value ignored = 0;
    ReqResult read = top_cep_.Read(g, e, &ignored);
    if (read == ReqResult::kBlocked) {
      // A write is in flight at the top level; retry the start later.
      group.begin_waiters.insert(tx);
      return ReqResult::kBlocked;
    }
    NONSERIAL_CHECK(read == ReqResult::kGranted);
  }
  // Open the scope: a private store seeded with X(G) and a private CEP.
  group.store = std::make_unique<VersionStore>(group.seed);
  group.cep = std::make_unique<CorrectExecutionProtocol>(group.store.get());
  group.cep->SetObserver(observer());
  for (int member : group.members) {
    if (registered_.contains(member)) {
      group.cep->Register(member, profiles_[member]);
    }
  }
  group.group_committed.clear();
  group.published = false;
  group.phase = GroupPhase::kActive;
  ++stats_.group_starts;
  Emit(TraceEvent::Kind::kGroupStart, g);
  for (int waiter : group.begin_waiters) wakeups_.insert(waiter);
  group.begin_waiters.clear();
  return ReqResult::kGranted;
}

ReqResult NestedCepController::Begin(int tx) {
  int g = GroupOf(tx);
  ReqResult started = EnsureGroupStarted(g, tx);
  if (started != ReqResult::kGranted) {
    DrainChildren();
    return started;
  }
  ReqResult result = groups_[g].cep->Begin(tx);
  DrainChildren();
  return result;
}

ReqResult NestedCepController::Read(int tx, EntityId e, Value* out) {
  GroupState& group = groups_[GroupOf(tx)];
  NONSERIAL_CHECK(group.phase == GroupPhase::kActive);
  ReqResult result = group.cep->Read(tx, e, out);
  DrainChildren();
  return result;
}

ReqResult NestedCepController::Write(int tx, EntityId e, Value value) {
  GroupState& group = groups_[GroupOf(tx)];
  NONSERIAL_CHECK(group.phase == GroupPhase::kActive);
  ReqResult result = group.cep->Write(tx, e, value);
  DrainChildren();
  return result;
}

void NestedCepController::WriteDone(int tx, EntityId e) {
  GroupState& group = groups_[GroupOf(tx)];
  if (group.phase != GroupPhase::kActive) return;  // Reset raced the event.
  group.cep->WriteDone(tx, e);
  DrainChildren();
}

ReqResult NestedCepController::Commit(int tx) {
  int g = GroupOf(tx);
  GroupState& group = groups_[g];
  if (group.phase == GroupPhase::kCommitted) {
    // The group (and with it this member) became durable earlier.
    return ReqResult::kGranted;
  }
  NONSERIAL_CHECK(group.phase == GroupPhase::kActive);
  if (!group.group_committed.contains(tx)) {
    ReqResult result = group.cep->Commit(tx);
    if (result != ReqResult::kGranted) {
      DrainChildren();
      return result;
    }
    group.group_committed.insert(tx);  // Committed relative to the group.
  }
  if (group.group_committed != group.members) {
    // Durability waits for the siblings; woken when the group commits.
    return ReqResult::kBlocked;
  }
  ReqResult result = TryGroupCommit(g);
  DrainChildren();
  return result;
}

ReqResult NestedCepController::TryGroupCommit(int g) {
  GroupState& group = groups_[g];
  if (!group.published) {
    // Publish the scope's net effect as the group's writes in the parent.
    ValueVector final_state = group.store->LatestCommittedSnapshot();
    for (EntityId e = 0; e < static_cast<EntityId>(final_state.size());
         ++e) {
      if (final_state[e] == group.seed[e]) continue;
      ReqResult write = top_cep_.Write(g, e, final_state[e]);
      NONSERIAL_CHECK(write == ReqResult::kGranted);  // Writes never block.
      top_cep_.WriteDone(g, e);
    }
    group.published = true;
  }
  ReqResult result = top_cep_.Commit(g);
  switch (result) {
    case ReqResult::kGranted: {
      group.phase = GroupPhase::kCommitted;
      ++stats_.group_commits;
      Emit(TraceEvent::Kind::kGroupCommit, g);
      for (int member : group.members) wakeups_.insert(member);
      return ReqResult::kGranted;
    }
    case ReqResult::kBlocked:
      // Top-level commit rules (predecessor groups, assigned authors) not
      // yet met; members stay parked and are woken via the top wakeups.
      return ReqResult::kBlocked;
    case ReqResult::kAborted:
      // O_G failed or a commit-wait cycle: the whole scope must redo.
      ResetGroup(g);
      return ReqResult::kAborted;
  }
  return ReqResult::kAborted;
}

void NestedCepController::ResetGroup(int g) {
  GroupState& group = groups_[g];
  if (group.phase == GroupPhase::kIdle) return;
  NONSERIAL_CHECK(group.phase != GroupPhase::kCommitted)
      << "cannot reset a durably committed group";
  top_cep_.Abort(g);  // Rolls back published writes and top-level locks.
  group.store.reset();
  group.cep.reset();
  group.group_committed.clear();
  group.published = false;
  group.phase = GroupPhase::kIdle;
  ++stats_.group_resets;
  Emit(TraceEvent::Kind::kGroupReset, g);
  for (int member : group.members) forced_aborts_.insert(member);
}

void NestedCepController::Abort(int tx) {
  int g = GroupOf(tx);
  GroupState& group = groups_[g];
  if (group.phase != GroupPhase::kActive) return;  // Reset already handled.
  group.cep->Abort(tx);
  group.group_committed.erase(tx);
  DrainChildren();
}

void NestedCepController::DrainChildren() {
  // Child-scope signals pass through; top-scope signals translate from
  // group granularity to member granularity.
  for (GroupState& group : groups_) {
    if (group.phase != GroupPhase::kActive || group.cep == nullptr) continue;
    for (int tx : group.cep->TakeWakeups()) wakeups_.insert(tx);
    for (int tx : group.cep->TakeForcedAborts()) {
      forced_aborts_.insert(tx);
      group.group_committed.erase(tx);
    }
  }
  for (int g : top_cep_.TakeWakeups()) {
    GroupState& group = groups_[g];
    for (int waiter : group.begin_waiters) wakeups_.insert(waiter);
    group.begin_waiters.clear();
    if (group.phase == GroupPhase::kActive &&
        group.group_committed == group.members && !group.members.empty()) {
      // Group was waiting at the top-level commit: retry through any
      // member (they are all parked in Commit).
      for (int member : group.members) wakeups_.insert(member);
    } else if (group.phase == GroupPhase::kIdle) {
      // Group start was blocked (validation / Rv): poke the members.
      for (int member : group.members) wakeups_.insert(member);
    }
  }
  for (int g : top_cep_.TakeForcedAborts()) {
    // Group-level partial-order invalidation or cascade: abort the group
    // transaction at the top and redo the whole scope.
    ResetGroup(g);
  }
}

std::vector<int> NestedCepController::TakeWakeups() {
  DrainChildren();
  std::vector<int> out(wakeups_.begin(), wakeups_.end());
  wakeups_.clear();
  return out;
}

std::vector<int> NestedCepController::TakeForcedAborts() {
  std::vector<int> out(forced_aborts_.begin(), forced_aborts_.end());
  forced_aborts_.clear();
  return out;
}

}  // namespace nonserial
