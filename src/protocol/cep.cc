#include "protocol/cep.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/logging.h"
#include "storage/wal.h"

namespace nonserial {

CorrectExecutionProtocol::CorrectExecutionProtocol(VersionStore* store)
    : CorrectExecutionProtocol(store, Options()) {}

CorrectExecutionProtocol::CorrectExecutionProtocol(VersionStore* store,
                                                   Options options)
    : store_(store),
      options_(options),
      metrics_(options.metrics),
      locks_(store->num_entities(), metrics_.get()) {
  initial_snapshot_.resize(store->num_entities());
  for (EntityId e = 0; e < store->num_entities(); ++e) {
    initial_snapshot_[e] = store->VersionAt(e, 0).value;
  }
}

void CorrectExecutionProtocol::Register(int tx, TxProfile profile) {
  std::lock_guard<std::mutex> lock(mu_);
  while (tx >= static_cast<int>(txs_.size())) {
    txs_.push_back(std::make_unique<TxState>());
  }
  while (tx >= num_records()) new_records_.emplace_back();
  if (tx >= static_cast<int>(retired_.size())) retired_.resize(tx + 1, 0);
  NONSERIAL_CHECK(!retired_[tx])
      << "Register on retired transaction " << tx;
  live_.insert(tx);
  precedence_.EnsureNodes(tx + 1);
  for (int pred : profile.predecessors) {
    // A retired predecessor would break the retirement invariant (no live
    // successor of a retired transaction) and with it the completeness of
    // the live-set scans; the session layer rejects such registrations
    // before they reach the protocol.
    NONSERIAL_CHECK(pred >= static_cast<int>(retired_.size()) ||
                    !retired_[pred])
        << "transaction " << tx << " names retired predecessor " << pred;
    precedence_.AddEdge(pred, tx);
  }
  TxState& state = State(tx);
  state.profile = std::move(profile);
  state.input_entities = state.profile.input.Entities();
  if (options_.eval_cache != nullptr) {
    state.cached_output = std::make_shared<const CachedPredicate>(
        state.profile.output, options_.eval_cache);
  }
  Record(tx).name = state.profile.name;
}

bool CorrectExecutionProtocol::Reaches(int from, int to) const {
  if (from == to) return false;
  return precedence_.Reaches(from, to);
}

std::vector<VersionRef> CorrectExecutionProtocol::AllowableVersions(
    int tx, EntityId e) const {
  // The set D of Section 5.1: a sibling t_j contributes its latest version
  // of e unless (1) it is a successor of tx, (2) it has not written e, or
  // (3) another writer of e lies between t_j and tx in P+.
  //
  // The scan covers the *live* (unretired) set only. Retirement eligibility
  // guarantees a retired transaction has no live successor, so: no retired
  // writer can shadow a live one (rule 3 needs Reaches(k, tx) with tx
  // live), and no retired writer can dominate as a predecessor
  // (Reaches(s, tx) likewise). Retired committed writers' versions are
  // summarized by the baseline candidate pushed below.
  std::vector<int> writers;
  for (int s : live_) {
    if (s == tx) continue;
    if (Reaches(tx, s)) continue;  // Rule 1: successor.
    if (!store_->LatestIndexBy(e, s).has_value()) continue;  // Rule 2.
    writers.push_back(s);
  }
  std::vector<int> surviving;
  for (int s : writers) {
    bool shadowed = false;
    for (int k : writers) {
      if (k != s && Reaches(s, k) && Reaches(k, tx)) {  // Rule 3.
        shadowed = true;
        break;
      }
    }
    if (!shadowed) surviving.push_back(s);
  }
  // Predecessor domination: if any surviving writer precedes tx in P+, the
  // transaction may only read predecessor versions.
  std::vector<int> preds;
  for (int s : surviving) {
    if (Reaches(s, tx)) preds.push_back(s);
  }
  // Candidate order biases the assignment search: committed versions first
  // (reading them never delays commit or risks a cascade), then the
  // parent's version, then optimistic uncommitted versions.
  std::vector<VersionRef> out;
  const std::vector<int>& chosen = preds.empty() ? surviving : preds;
  for (int s : chosen) {
    if (PhaseOf(s) == Phase::kCommitted) {
      out.push_back(VersionRef{e, *store_->LatestIndexBy(e, s)});
    }
  }
  if (preds.empty()) {
    if (options_.retirement) {
      // Baseline candidate standing in for retired committed writers: the
      // store's latest committed version of e. Always in D for a root-scope
      // reader — its author cannot be a successor of tx (commit rule 1
      // would then have required tx committed), and shadowing it would need
      // a surviving predecessor writer, contradicting preds.empty().
      int latest = store_->LatestCommittedIndex(e);
      if (latest != 0) {
        bool already = false;
        for (const VersionRef& ref : out) {
          if (ref.index == latest) {
            already = true;
            break;
          }
        }
        if (!already) out.push_back(VersionRef{e, latest});
      }
    }
    // The version assigned to the parent: at the root scope, the initial
    // database (version 0).
    out.push_back(VersionRef{e, 0});
  }
  for (int s : chosen) {
    if (PhaseOf(s) != Phase::kCommitted) {
      out.push_back(VersionRef{e, *store_->LatestIndexBy(e, s)});
    }
  }
  return out;
}

CorrectExecutionProtocol::CandidateSnapshot
CorrectExecutionProtocol::GatherCandidates(
    int tx, const std::map<EntityId, VersionRef>& pinned) const {
  const TxState& state = State(tx);
  int n = store_->num_entities();
  CandidateSnapshot snapshot;
  snapshot.refs.resize(n);
  for (EntityId e = 0; e < n; ++e) {
    auto pin = pinned.find(e);
    if (pin != pinned.end()) {
      snapshot.refs[e] = {pin->second};
    } else if (state.input_entities.contains(e)) {
      snapshot.refs[e] = AllowableVersions(tx, e);
    } else {
      snapshot.refs[e] = {VersionRef{e, 0}};
    }
    for (const VersionRef& ref : snapshot.refs[e]) {
      snapshot.values.Push(store_->Read(ref));
    }
    snapshot.values.FinishEntity();
  }
  for (EntityId e : state.input_entities) {
    snapshot.stamps[e] = store_->ChainSize(e);
  }
  return snapshot;
}

bool CorrectExecutionProtocol::SnapshotStillValid(
    const CandidateSnapshot& snapshot, const std::vector<int>& choice) const {
  for (const auto& [e, size] : snapshot.stamps) {
    if (store_->ChainSize(e) != size) return false;
    const VersionRef& ref = snapshot.refs[e][choice[e]];
    if (store_->At(ref).dead) return false;
  }
  return true;
}

void CorrectExecutionProtocol::InstallAssignment(
    int tx, const CandidateSnapshot& snapshot, const std::vector<int>& choice) {
  TxState& state = State(tx);
  state.assigned.clear();
  for (EntityId e : state.input_entities) {
    state.assigned[e] = snapshot.refs[e][choice[e]];
  }
  state.input_view = initial_snapshot_;
  for (const auto& [e, ref] : state.assigned) {
    state.input_view[e] = store_->Read(ref);
  }
  state.local_view = state.input_view;
  for (const auto& [e, idx] : state.own_latest) {
    state.local_view[e] = store_->VersionAt(e, idx).value;
  }
}

bool CorrectExecutionProtocol::SolveAssignment(
    int tx, const std::map<EntityId, VersionRef>& pinned) {
  CandidateSnapshot snapshot = GatherCandidates(tx, pinned);
  std::optional<std::vector<int>> choice =
      FindSatisfyingAssignment(State(tx).profile.input, snapshot.values);
  if (!choice.has_value()) return false;
  InstallAssignment(tx, snapshot, *choice);
  return true;
}

ReqResult CorrectExecutionProtocol::Begin(int tx) {
  std::unique_lock<std::mutex> lock(mu_);
  NONSERIAL_CHECK(State(tx).phase == Phase::kIdle ||
                  State(tx).phase == Phase::kValidating)
      << "Begin on transaction in phase "
      << static_cast<int>(State(tx).phase);
  State(tx).phase = Phase::kValidating;
  // Failpoint: the definition/validation boundary. Firing simulates a
  // transient validation-phase failure; the attempt aborts and retries.
  if (NONSERIAL_FAILPOINT("cep.pre_validate")) return ReqResult::kAborted;
  // Validation, part 0: Rv locks protect the version assignment.
  for (EntityId e : State(tx).input_entities) {
    if (locks_.HoldsRv(tx, e)) continue;
    if (locks_.Acquire(tx, e, KsLockMode::kRv) == KsLockOutcome::kBlocked) {
      read_waiters_[e].insert(tx);
      Emit(TraceEvent::Kind::kValidationWait, tx, -1, e);
      return ReqResult::kBlocked;
    }
  }
  // Validation, parts 1 + 2: allowable-version sets, then the (NP-complete
  // in general) satisfying-assignment search. The search runs outside the
  // engine lock — candidates and chain stamps are snapshotted under the
  // lock, and the assignment only installs if the stamps still hold. The
  // Rv locks held across the window turn any concurrent write into a
  // Figure 4 re-evaluation, so nothing is admitted that the fully locked
  // protocol would reject; a failed revalidation rescans, but only
  // max_validation_rescans times — a hot-entity write storm can otherwise
  // invalidate every pass and starve the reader forever.
  int rescans = 0;
  // The previously invalidated pass, if any: its snapshot and the choice it
  // found. A rescan whose candidate lists mostly match that snapshot can be
  // solved as a *delta* — unchanged entities pinned to the prior choice,
  // only changed entities re-searched (see DeltaRevalidate).
  bool have_prev = false;
  CandidateSnapshot prev_snapshot;
  std::vector<int> prev_choice;
  for (;;) {
    CandidateSnapshot snapshot = GatherCandidates(tx, {});
    // The profile is immutable while an attempt is in flight (Register
    // precedes driving; Abort runs on this transaction's own thread).
    const Predicate& input = State(tx).profile.input;
    std::set<EntityId> changed;
    if (have_prev) {
      // Only the input entities can change between passes: every other
      // entity's candidate list is the pinned initial version.
      for (EntityId e : State(tx).input_entities) {
        if (snapshot.refs[e] != prev_snapshot.refs[e] ||
            snapshot.values.view(e) != prev_snapshot.values.view(e)) {
          changed.insert(e);
        }
      }
    }
    lock.unlock();
    if (options_.validation_interference) options_.validation_interference(tx);
    SearchStats search;
    DeltaStats delta_search;
    std::optional<std::vector<int>> choice =
        have_prev ? DeltaRevalidate(input, snapshot.values, prev_choice,
                                    changed, SearchMode::kPruned, &search,
                                    &delta_search)
                  : FindSatisfyingAssignment(input, snapshot.values,
                                             SearchMode::kPruned, &search);
    lock.lock();
    metrics_->search_nodes.Record(search.nodes_visited);
    if (have_prev) {
      metrics_->delta_rescans.Add(delta_search.delta_solves);
      metrics_->delta_fallbacks.Add(delta_search.delta_fallbacks);
      if (delta_search.delta_solves > 0) {
        Emit(TraceEvent::Kind::kDeltaRevalidate, tx);
      }
    }
    if (!choice.has_value()) {
      metrics_->validation_fails.Add();
      validation_waiters_[tx] = State(tx).input_entities;
      Emit(TraceEvent::Kind::kValidationWait, tx);
      return ReqResult::kBlocked;
    }
    if (!SnapshotStillValid(snapshot, *choice)) {
      metrics_->validation_rescans.Add();
      if (++rescans <= options_.max_validation_rescans) {
        prev_snapshot = std::move(snapshot);
        prev_choice = std::move(*choice);
        have_prev = true;
        continue;
      }
      // Starved by concurrent writers: close the optimistic window and run
      // the search inside the engine lock (the locked Figure 4 path). No
      // write can interleave, so this pass is final.
      metrics_->validation_starved.Add();
      if (!SolveAssignment(tx, {})) {
        metrics_->validation_fails.Add();
        validation_waiters_[tx] = State(tx).input_entities;
        Emit(TraceEvent::Kind::kValidationWait, tx);
        return ReqResult::kBlocked;
      }
      return GrantValidation(tx);
    }
    InstallAssignment(tx, snapshot, *choice);
    return GrantValidation(tx);
  }
}

ReqResult CorrectExecutionProtocol::GrantValidation(int tx) {
  // Failpoint: the validation/execution boundary, after the assignment is
  // installed. Firing tears the attempt down post-install, exercising the
  // rollback of a fully assigned (but never executed) transaction.
  if (NONSERIAL_FAILPOINT("cep.post_install")) return ReqResult::kAborted;
  metrics_->validations.Add();
  State(tx).phase = Phase::kExecuting;
  // A previous blocked attempt may have parked this transaction in the
  // waiter maps and a poll-driven retry (rather than a wakeup) got it
  // here; drop the stale registrations so the maps stay tight.
  DropWaiterEntries(tx);
  Emit(TraceEvent::Kind::kValidated, tx);
  return ReqResult::kGranted;
}

ReqResult CorrectExecutionProtocol::Read(int tx, EntityId e, Value* out) {
  std::lock_guard<std::mutex> lock(mu_);
  TxState& state = State(tx);
  NONSERIAL_CHECK(state.phase == Phase::kExecuting);
  NONSERIAL_CHECK(state.input_entities.contains(e))
      << "transaction '" << state.profile.name << "' reads entity " << e
      << " which is not in its input constraint (the protocol rejects reads "
         "without an Rv lock)";
  if (locks_.UpgradeToRead(tx, e) == KsLockOutcome::kBlocked) {
    read_waiters_[e].insert(tx);
    return ReqResult::kBlocked;
  }
  // A poll-driven retry may succeed without the waking WriteDone having
  // cleared this entry; erase-and-prune keeps the map from leaking.
  auto waiting = read_waiters_.find(e);
  if (waiting != read_waiters_.end()) {
    waiting->second.erase(tx);
    if (waiting->second.empty()) read_waiters_.erase(waiting);
  }
  *out = state.local_view[e];
  state.reads_done.insert(e);
  Emit(TraceEvent::Kind::kRead, tx, -1, e, *out);
  return ReqResult::kGranted;
}

ReqResult CorrectExecutionProtocol::Write(int tx, EntityId e, Value value) {
  std::lock_guard<std::mutex> lock(mu_);
  TxState& state = State(tx);
  NONSERIAL_CHECK(state.phase == Phase::kExecuting);
  KsLockOutcome outcome = locks_.Acquire(tx, e, KsLockMode::kW);
  int index = store_->Append(e, value, tx);
  state.own_latest[e] = index;
  state.write_log.push_back({e, value});
  state.local_view[e] = value;
  Emit(TraceEvent::Kind::kWrite, tx, -1, e, value);
  if (outcome == KsLockOutcome::kReEval) ReEvaluate(tx, e);
  return ReqResult::kGranted;
}

void CorrectExecutionProtocol::WriteDone(int tx, EntityId e) {
  std::lock_guard<std::mutex> lock(mu_);
  locks_.ReleaseWrite(tx, e);
  if (!locks_.HasActiveWriter(e)) {
    auto it = read_waiters_.find(e);
    if (it != read_waiters_.end()) {
      for (int waiter : it->second) Wake(waiter);
      read_waiters_.erase(it);
    }
  }
  WakeValidationWaiters(e);
}

void CorrectExecutionProtocol::ReEvaluate(int writer, EntityId e) {
  metrics_->reevals.Add();
  Emit(TraceEvent::Kind::kReEval, writer, -1, e);
  for (int reader : locks_.Readers(e)) {
    if (reader == writer) continue;
    TxState& r = State(reader);
    if (r.phase == Phase::kValidating) {
      // Not yet assigned: simply retry validation with the new version.
      // (A reader mid-optimistic-search also lands here; its chain stamp
      // for `e` changed, so the pending install rescans on its own.)
      Wake(reader);
      continue;
    }
    if (r.phase != Phase::kExecuting) continue;
    if (!Reaches(writer, reader)) continue;  // Figure 4: path(P, W, R[i]).
    auto it = r.assigned.find(e);
    if (it == r.assigned.end()) continue;
    int author = store_->At(it->second).writer;
    if (author == writer) continue;
    bool author_precedes_writer =
        author == kInitialWriter || Reaches(author, writer);
    if (!author_precedes_writer) continue;  // Figure 4: path(P, V, W).
    if (r.reads_done.contains(e)) {
      // Already read the stale version: partial-order invalidation.
      ForceAbort(reader, TraceEvent::Kind::kPoAbort);
    } else {
      ReAssign(reader, writer, e);
    }
  }
}

void CorrectExecutionProtocol::ReAssign(int reader, int writer, EntityId e) {
  metrics_->reassigns.Add();
  TxState& r = State(reader);
  std::map<EntityId, VersionRef> pinned;
  for (EntityId read_entity : r.reads_done) {
    pinned[read_entity] = r.assigned.at(read_entity);
  }
  pinned[e] = VersionRef{e, *store_->LatestIndexBy(e, writer)};
  if (!SolveAssignment(reader, pinned)) {
    reassign_failures_.fetch_add(1, std::memory_order_relaxed);
    ForceAbort(reader, TraceEvent::Kind::kCascadeAbort);
    return;
  }
  Emit(TraceEvent::Kind::kReAssign, reader, writer, e);
}

ReqResult CorrectExecutionProtocol::Commit(int tx) {
  WalCommitHandle durable;
  ReqResult result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    result = CommitLocked(tx, &durable);
  }
  // Durability wait OUTSIDE the engine lock (early lock release): the
  // engine stays free to validate, execute, and stage other transactions'
  // commits while this one waits for its group-commit flush epoch — this
  // is what lets concurrent committers share one device flush. Safe
  // because commit log order is FIFO: any dependent transaction's commit
  // record lands after ours, so a crashed prefix can never keep the
  // dependent while losing us. The handle's verdict is advisory (a failed
  // medium already dropped the record; recovery semantics govern).
  if (result == ReqResult::kGranted && store_->wal() != nullptr) {
    store_->wal()->WaitDurable(durable);
  }
  return result;
}

ReqResult CorrectExecutionProtocol::CommitLocked(int tx,
                                                 WalCommitHandle* durable) {
  TxState& state = State(tx);
  NONSERIAL_CHECK(state.phase == Phase::kExecuting);
  // A pending forced abort (Figure 4 partial-order invalidation or a
  // cascade) kills the attempt even if the owner races it to Commit: both
  // run under the engine lock, so exactly one of {doom, commit} wins.
  if (state.doomed) return ReqResult::kAborted;
  // Termination rule 1: all P-predecessors have committed.
  for (int pred : state.profile.predecessors) {
    if (PhaseOf(pred) != Phase::kCommitted) {
      commit_waiters_[pred].insert(tx);
      metrics_->commit_waits.Add();
      Emit(TraceEvent::Kind::kCommitWait, tx, pred);
      return ReqResult::kBlocked;
    }
  }
  // Termination rule 2 (recoverability): the authors of every version in
  // this transaction's assignment have committed, so X(t) can never refer
  // to a rolled-back version after commit. Wait-cycles among mutually
  // assigned transactions are broken by aborting the requester.
  for (const auto& [e, ref] : state.assigned) {
    Version v = store_->At(ref);
    if (v.writer == kInitialWriter || v.writer == tx) continue;
    if (v.dead) {
      // The assigned version was rolled back and the re-assignment pass
      // missed it or was impossible: committing would publish a read of a
      // version that never existed. Abort instead — the author's *phase*
      // may even be committed (a later attempt of the same runtime id),
      // which is exactly why the version itself must be checked.
      metrics_->cascade_aborts.Add();
      return ReqResult::kAborted;
    }
    if (PhaseOf(v.writer) == Phase::kCommitted) continue;
    if (WouldDeadlock(tx, v.writer)) return ReqResult::kAborted;
    commit_waiters_[v.writer].insert(tx);
    metrics_->commit_waits.Add();
    Emit(TraceEvent::Kind::kCommitWait, tx, v.writer);
    return ReqResult::kBlocked;
  }
  // Termination rule 3: the output condition holds on the final state.
  bool output_holds =
      state.cached_output != nullptr
          ? state.cached_output->Eval(state.profile.output, state.local_view)
          : state.profile.output.Eval(state.local_view);
  if (!output_holds) {
    metrics_->output_aborts.Add();
    return ReqResult::kAborted;
  }
  // Failpoint: the execution/termination boundary, after every commit rule
  // has passed but before anything durable happens. Firing simulates a
  // last-instant termination failure.
  if (NONSERIAL_FAILPOINT("cep.pre_commit")) return ReqResult::kAborted;
  // Durability: the logical commit record (what the verifier needs to
  // replay this transaction) goes to the WAL strictly before the commit
  // marker CommitWriter logs. A crash between the two leaves the
  // transaction in-flight — recovery discards it, never half-commits it.
  if (store_->wal() != nullptr) {
    // The client idempotency token rides immediately before the payload:
    // both land before the commit marker, so the token is durable exactly
    // when the commit is — a resend after recovery finds it iff the commit
    // survived.
    if (state.commit_token != 0) {
      store_->wal()->LogCommitToken(tx, state.commit_token);
    }
    std::vector<int> feeders;
    for (const auto& [e, ref] : state.assigned) {
      int author = store_->At(ref).writer;
      if (author != kInitialWriter && author != tx) feeders.push_back(author);
    }
    store_->wal()->LogTxPayload(tx, state.profile.name, state.input_view,
                                std::move(feeders), state.write_log);
  }
  *durable = store_->CommitWriter(tx);
  locks_.ReleaseAll(tx);
  state.phase = Phase::kCommitted;

  TxRecord& record = Record(tx);
  record.name = state.profile.name;
  record.input_state = state.input_view;
  record.feeder_txs.clear();
  for (const auto& [e, ref] : state.assigned) {
    int author = store_->At(ref).writer;
    if (author != kInitialWriter && author != tx) {
      record.feeder_txs.insert(author);
    }
  }
  record.writes = state.write_log;
  record.committed = true;

  auto waiters = commit_waiters_.find(tx);
  if (waiters != commit_waiters_.end()) {
    for (int waiter : waiters->second) Wake(waiter);
    commit_waiters_.erase(waiters);
  }
  // Earlier blocked attempts may have left this transaction registered as
  // a waiter; it will never look at those signals again.
  DropWaiterEntries(tx);
  Emit(TraceEvent::Kind::kCommitted, tx);
  return ReqResult::kGranted;
}

bool CorrectExecutionProtocol::WouldDeadlock(int tx, int target) const {
  // DFS through the commit-wait edges: does `target` (transitively) wait
  // for `tx`?
  std::vector<int> stack = {target};
  std::set<int> seen = {target};
  while (!stack.empty()) {
    int current = stack.back();
    stack.pop_back();
    if (current == tx) return true;
    for (const auto& [waited_on, waiters] : commit_waiters_) {
      if (waiters.contains(current) && !seen.contains(waited_on)) {
        seen.insert(waited_on);
        stack.push_back(waited_on);
      }
    }
  }
  return false;
}

void CorrectExecutionProtocol::Abort(int tx) {
  std::lock_guard<std::mutex> lock(mu_);
  Phase phase = PhaseOf(tx);
  if (phase == Phase::kIdle) return;
  Emit(TraceEvent::Kind::kAborted, tx);
  NONSERIAL_CHECK(phase != Phase::kCommitted)
      << "cannot abort committed transaction " << tx;
  TxState& state = State(tx);
  std::vector<EntityId> written;
  for (const auto& entry : state.own_latest) written.push_back(entry.first);

  store_->RollbackWriter(tx);
  locks_.ReleaseAll(tx);

  // Readers assigned one of this transaction's (now dead) versions must be
  // re-assigned, or cascade-aborted if they already consumed a dead value.
  // The whole assignment is scanned before deciding: a reader that consumed
  // *any* dead version is doomed even when a different entity's dead
  // version is still unread (re-solving with the consumed version pinned
  // would smuggle the rolled-back value into a committed history).
  for (int other : live_) {
    if (other == tx) continue;
    TxState& o = State(other);
    if (o.phase != Phase::kExecuting) continue;
    bool uses_victim = false;
    bool read_victim = false;
    for (const auto& [e, ref] : o.assigned) {
      if (store_->At(ref).writer != tx) continue;
      uses_victim = true;
      if (o.reads_done.contains(e)) {
        read_victim = true;
        break;
      }
    }
    if (!uses_victim) continue;
    if (read_victim) {
      ForceAbort(other, TraceEvent::Kind::kCascadeAbort);
      continue;
    }
    // Every use is still unread; the pins (entities already read) therefore
    // reference other authors' live versions only.
    std::map<EntityId, VersionRef> pinned;
    for (EntityId read_entity : o.reads_done) {
      pinned[read_entity] = o.assigned.at(read_entity);
    }
    if (!SolveAssignment(other, pinned)) {
      ForceAbort(other, TraceEvent::Kind::kCascadeAbort);
    }
  }

  // Reset the attempt, keeping the registered profile (and the cached
  // clause hashes — they depend only on the profile's structure).
  TxProfile profile = std::move(state.profile);
  std::shared_ptr<const CachedPredicate> cached_output =
      std::move(state.cached_output);
  state = TxState();
  state.profile = std::move(profile);
  state.input_entities = state.profile.input.Entities();
  state.cached_output = std::move(cached_output);
  state.phase = Phase::kIdle;

  // Drop waiter registrations held by tx (pruning emptied entries — the
  // maps must not grow with churn).
  DropWaiterEntries(tx);

  // Transactions waiting on this commit must re-decide against the
  // (re-assigned) state rather than wait for a commit that won't come.
  auto commit_waiters = commit_waiters_.find(tx);
  if (commit_waiters != commit_waiters_.end()) {
    for (int waiter : commit_waiters->second) Wake(waiter);
    commit_waiters_.erase(commit_waiters);
  }

  // Entities this transaction was writing may now be writer-free.
  for (EntityId e : written) {
    if (!locks_.HasActiveWriter(e)) {
      auto it = read_waiters_.find(e);
      if (it != read_waiters_.end()) {
        for (int waiter : it->second) Wake(waiter);
        read_waiters_.erase(it);
      }
    }
    WakeValidationWaiters(e);
  }
}

void CorrectExecutionProtocol::DropWaiterEntries(int tx) {
  validation_waiters_.erase(tx);
  for (auto it = read_waiters_.begin(); it != read_waiters_.end();) {
    it->second.erase(tx);
    it = it->second.empty() ? read_waiters_.erase(it) : std::next(it);
  }
  for (auto it = commit_waiters_.begin(); it != commit_waiters_.end();) {
    it->second.erase(tx);
    it = it->second.empty() ? commit_waiters_.erase(it) : std::next(it);
  }
}

size_t CorrectExecutionProtocol::WaiterFootprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return validation_waiters_.size() + read_waiters_.size() +
         commit_waiters_.size();
}

void CorrectExecutionProtocol::InjectAbort(int tx) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tx < 0 || tx >= static_cast<int>(txs_.size())) return;
  ForceAbort(tx, TraceEvent::Kind::kInjectedAbort);
}

CorrectExecutionProtocol::TxRecord CorrectExecutionProtocol::TxRecord::Recovered(
    const RecoveredTx& t) {
  TxRecord record;
  record.name = t.name;
  record.input_state = t.input_state;
  record.feeder_txs.insert(t.feeders.begin(), t.feeders.end());
  record.writes = t.writes;
  record.committed = true;
  return record;
}

std::vector<CorrectExecutionProtocol::TxRecord> RecoveredRecords(
    const std::vector<RecoveredTx>& committed, size_t num_txs) {
  std::vector<CorrectExecutionProtocol::TxRecord> records(num_txs);
  for (const RecoveredTx& t : committed) {
    if (static_cast<size_t>(t.tx) >= records.size()) records.resize(t.tx + 1);
    records[t.tx] = CorrectExecutionProtocol::TxRecord::Recovered(t);
  }
  return records;
}

void CorrectExecutionProtocol::RestoreCommitted(int tx, TxRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  NONSERIAL_CHECK_GE(tx, 0);
  NONSERIAL_CHECK_LT(tx, static_cast<int>(txs_.size()))
      << "RestoreCommitted before Register";
  NONSERIAL_CHECK(!retired_[tx])
      << "RestoreCommitted on retired transaction " << tx;
  TxState& state = State(tx);
  NONSERIAL_CHECK(state.phase == Phase::kIdle)
      << "RestoreCommitted on an active transaction";
  state.phase = Phase::kCommitted;
  record.committed = true;
  if (record.name.empty()) record.name = state.profile.name;
  Record(tx) = std::move(record);
}

bool CorrectExecutionProtocol::Retire(int tx) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!options_.retirement) return false;
  if (tx < 0 || tx >= static_cast<int>(txs_.size())) return false;
  if (retired_[tx]) return true;
  const TxState& state = State(tx);
  if (state.phase != Phase::kCommitted && state.phase != Phase::kIdle) {
    return false;  // Still in flight; not terminal.
  }
  // Eligibility: every direct P-successor already retired. Inductively, a
  // retired transaction then has no live transitive successor — the
  // invariant AllowableVersions' live-set scan depends on.
  for (int succ : precedence_.OutEdges(tx)) {
    if (succ >= static_cast<int>(retired_.size()) || !retired_[succ]) {
      return false;
    }
  }
  retired_[tx] = 1;
  live_.erase(tx);
  // Reclaim the whole state (assignment, views, write log, profile).
  // PhaseOf still answers from the record — commit rule 2 consults the
  // writer's phase when a live reader adopted the baseline version — and
  // that record keeps the committed outcome for the verifier.
  txs_[tx].reset();
  Emit(TraceEvent::Kind::kRetired, tx);
  return true;
}

bool CorrectExecutionProtocol::IsRetired(int tx) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tx >= 0 && tx < static_cast<int>(retired_.size()) &&
         retired_[tx] != 0;
}

void CorrectExecutionProtocol::SetCommitToken(int tx, uint64_t token) {
  std::lock_guard<std::mutex> lock(mu_);
  NONSERIAL_CHECK(tx >= 0 && tx < static_cast<int>(txs_.size()))
      << "SetCommitToken before Register";
  NONSERIAL_CHECK(!retired_[tx]) << "SetCommitToken on retired transaction "
                                 << tx;
  State(tx).commit_token = token;
}

void CorrectExecutionProtocol::WakeValidationWaiters(EntityId e) {
  for (auto it = validation_waiters_.begin();
       it != validation_waiters_.end();) {
    if (it->second.contains(e)) {
      Wake(it->first);
      it = validation_waiters_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<VersionRef> CorrectExecutionProtocol::PinnedVersions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<VersionRef> out;
  for (int tx : live_) {
    const TxState& state = State(tx);
    if (state.phase != Phase::kValidating &&
        state.phase != Phase::kExecuting) {
      continue;
    }
    for (const auto& [e, ref] : state.assigned) out.push_back(ref);
  }
  return out;
}

const ValueVector* CorrectExecutionProtocol::InputView(int tx) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (tx < 0 || tx >= static_cast<int>(txs_.size()) || retired_[tx]) {
    return nullptr;
  }
  const TxState& state = State(tx);
  if (state.phase != Phase::kExecuting &&
      state.phase != Phase::kCommitted) {
    return nullptr;
  }
  return &state.input_view;
}

bool CorrectExecutionProtocol::IsCommitted(int tx) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tx >= 0 && tx < static_cast<int>(txs_.size()) &&
         PhaseOf(tx) == Phase::kCommitted;
}

CorrectExecutionProtocol::Phase CorrectExecutionProtocol::PhaseOf(
    int tx) const {
  if (txs_[tx] != nullptr) return txs_[tx]->phase;
  return Record(tx).committed ? Phase::kCommitted : Phase::kIdle;
}

CorrectExecutionProtocol::TxRecord& CorrectExecutionProtocol::Record(int tx) {
  int table = static_cast<int>(records_.size());
  return tx < table ? records_[tx] : new_records_[tx - table];
}

const CorrectExecutionProtocol::TxRecord& CorrectExecutionProtocol::Record(
    int tx) const {
  int table = static_cast<int>(records_.size());
  return tx < table ? records_[tx] : new_records_[tx - table];
}

const std::vector<CorrectExecutionProtocol::TxRecord>&
CorrectExecutionProtocol::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  records_.reserve(records_.size() + new_records_.size());
  for (TxRecord& record : new_records_) records_.push_back(std::move(record));
  new_records_.clear();
  return records_;
}

void CorrectExecutionProtocol::Wake(int tx) { wakeups_.insert(tx); }

void CorrectExecutionProtocol::ForceAbort(int tx, TraceEvent::Kind reason) {
  Phase phase = PhaseOf(tx);
  if (phase == Phase::kIdle || phase == Phase::kCommitted) return;
  TxState& state = State(tx);
  if (state.doomed) return;  // Already condemned (signal may be drained).
  switch (reason) {
    case TraceEvent::Kind::kPoAbort:
      metrics_->po_aborts.Add();
      break;
    case TraceEvent::Kind::kInjectedAbort:
      metrics_->injected_aborts.Add();
      break;
    default:
      metrics_->cascade_aborts.Add();
      break;
  }
  state.doomed = true;
  forced_aborts_.insert(tx);
  Emit(reason, tx);
}

std::vector<int> CorrectExecutionProtocol::TakeWakeups() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out(wakeups_.begin(), wakeups_.end());
  wakeups_.clear();
  return out;
}

std::vector<int> CorrectExecutionProtocol::TakeForcedAborts() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> out(forced_aborts_.begin(), forced_aborts_.end());
  forced_aborts_.clear();
  return out;
}

}  // namespace nonserial
