#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/strings.h"

namespace nonserial {

namespace {
using Clock = std::chrono::steady_clock;

int64_t ElapsedUs(Clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               since)
      .count();
}

/// The baselines (2PL/MVTO families, Nested-CEP's outer maps) are
/// single-threaded state machines; sessions drive the engine's controller
/// from one thread each, so the engine wraps every controller that is not
/// thread_safe() in this decorator. No controller call blocks internally,
/// so one mutex around each entry point cannot deadlock.
class SerializedController : public ConcurrencyController {
 public:
  explicit SerializedController(std::unique_ptr<ConcurrencyController> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void Register(int tx, TxProfile profile) override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_->Register(tx, std::move(profile));
  }
  ReqResult Begin(int tx) override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->Begin(tx);
  }
  ReqResult Read(int tx, EntityId e, Value* out) override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->Read(tx, e, out);
  }
  ReqResult Write(int tx, EntityId e, Value value) override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->Write(tx, e, value);
  }
  void WriteDone(int tx, EntityId e) override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_->WriteDone(tx, e);
  }
  ReqResult Commit(int tx) override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->Commit(tx);
  }
  void Abort(int tx) override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_->Abort(tx);
  }
  std::vector<int> TakeWakeups() override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->TakeWakeups();
  }
  std::vector<int> TakeForcedAborts() override {
    std::lock_guard<std::mutex> lock(mu_);
    return inner_->TakeForcedAborts();
  }
  void SetObserver(TraceSink* sink) override {
    std::lock_guard<std::mutex> lock(mu_);
    inner_->SetObserver(sink);
  }
  ConcurrencyController* inner() const { return inner_.get(); }

 private:
  std::unique_ptr<ConcurrencyController> inner_;
  std::mutex mu_;
};

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)), metrics_(options_.protocol.metrics) {
  // Engine-level retirement implies the protocol-level scan-set support,
  // and the default CEP counts into the engine's sink (both must be set
  // before BuildController copies the protocol options).
  if (options_.retire_terminated_tx) options_.protocol.retirement = true;
  options_.protocol.metrics = metrics();
  store_ = std::make_shared<VersionStore>(options_.initial);
  if (options_.wal != nullptr) {
    NONSERIAL_CHECK_EQ(options_.wal->initial().size(), options_.initial.size())
        << "write-ahead log initial state does not match the engine's";
    store_->SetWal(options_.wal);
    // Attached before the writer thread starts, detached by Shutdown once
    // it has joined.
    options_.wal->SetMetrics(metrics());
    options_.wal->set_flush_us(options_.wal_flush_us);
    if (options_.wal_group_commit) {
      options_.wal->SetObserver(options_.observer);
      options_.wal->EnableGroupCommit();
    }
  }
  if (options_.protocol.eval_cache != nullptr) {
    // Count the probes into the engine's sink.
    options_.protocol.eval_cache->SetMetrics(metrics());
  }
  BuildController(store_.get());
}

void Engine::BuildController(VersionStore* store) {
  cep_.reset();
  if (options_.controller_factory) {
    std::unique_ptr<ConcurrencyController> built =
        options_.controller_factory(store);
    NONSERIAL_CHECK(built != nullptr) << "controller_factory returned null";
    if (built->thread_safe()) {
      controller_ = std::move(built);
      cep_ = std::dynamic_pointer_cast<CorrectExecutionProtocol>(controller_);
    } else {
      controller_ = std::make_shared<SerializedController>(std::move(built));
    }
  } else {
    cep_ = std::make_shared<CorrectExecutionProtocol>(store, options_.protocol);
    controller_ = cep_;
  }
  if (options_.observer != nullptr) controller_->SetObserver(options_.observer);
}

std::shared_ptr<ConcurrencyController> Engine::controller_ref() const {
  if (const auto* serialized =
          dynamic_cast<const SerializedController*>(controller_.get())) {
    // Aliasing handle: shares the decorator's ownership of the protocol.
    return {controller_, serialized->inner()};
  }
  return controller_;
}

Engine::~Engine() {
  Shutdown();
  // The cache may outlive the engine; it must not count into a sink that
  // dies here.
  if (options_.protocol.eval_cache != nullptr && metrics_.owned()) {
    options_.protocol.eval_cache->SetMetrics(nullptr);
  }
}

void Engine::Shutdown() {
  std::lock_guard<std::mutex> lifecycle_lock(lifecycle_mu_);
  if (shutdown_done_) return;
  stopping_.store(true, std::memory_order_release);
  {
    // Parked sessions re-check shutting_down() under hub_mu_; taking the
    // lock before notifying closes the check-then-park race.
    std::lock_guard<std::mutex> hub_lock(hub_mu_);
    hub_cv_.notify_all();
  }
  if (options_.wal != nullptr) {
    if (options_.wal_group_commit) {
      // DisableGroupCommit (not Flush) on purpose: the stop request makes
      // the writer drain every staged batch even under HoldFlushesForTest,
      // whereas Flush would park forever behind the hold. Pending commit
      // acks resolve as their batches reach the medium.
      options_.wal->DisableGroupCommit();
      options_.wal->SetObserver(nullptr);
    }
    options_.wal->SetMetrics(nullptr);
  }
  shutdown_done_ = true;
}

void Engine::Kill() {
  killed_.store(true, std::memory_order_release);
  generation_.fetch_add(1, std::memory_order_acq_rel);
  // Parked sessions re-check killed_ under hub_mu_ (as in Shutdown).
  std::lock_guard<std::mutex> hub_lock(hub_mu_);
  hub_cv_.notify_all();
}

void Engine::InjectAbort(int tx) {
  NONSERIAL_CHECK(cep_ != nullptr) << "InjectAbort needs the hosted CEP";
  cep_->InjectAbort(tx);
  DrainSignals();
}

RecoveryResult Engine::CrashRecover(const RecoveryOptions& recovery_options,
                                    const RecoveredSpecLookup& spec_of) {
  std::lock_guard<std::mutex> lifecycle_lock(lifecycle_mu_);
  NONSERIAL_CHECK(options_.wal != nullptr)
      << "CrashRecover needs a write-ahead log";
  RecoveryResult rec = options_.wal->Recover(recovery_options);
  if (!rec.status.ok()) return rec;
  // The crash marker fences the log so writer ids re-run after restart
  // cannot resurrect their pre-crash in-flight appends. It also discards
  // the volatile staging buffer (failing its acks) and repairs the medium.
  options_.wal->LogCrashMarker();
  store_ = rec.store;
  store_->SetWal(options_.wal);
  BuildController(store_.get());
  {
    // Pending retirements referenced the dead controller generation.
    std::lock_guard<std::mutex> retire_lock(retire_mu_);
    retire_pending_.clear();
  }
  if (cep_ != nullptr) {
    // Re-adopt every recovered commit, so a later transaction can name one
    // as a predecessor (commit rule 1) or be assigned its versions. The log
    // keeps names but neither predicates nor P-edges.
    for (const RecoveredTx& t : rec.committed) {
      engine::TxSpec spec;
      if (spec_of) {
        spec = spec_of(t.tx);
      } else {
        spec.name = t.name;
      }
      cep_->Register(t.tx, std::move(spec));
      cep_->RestoreCommitted(
          t.tx, CorrectExecutionProtocol::TxRecord::Recovered(t));
    }
    for (const RecoveredTx& t : rec.committed) RetireTx(t.tx);
  }
  // The token table is the in-memory view of the durable kCommitToken
  // records: rebuild it from what actually survived. A token whose commit
  // record was lost with the crash vanishes here too — its resend
  // re-executes, which is exactly right (the commit never happened).
  {
    std::lock_guard<std::mutex> token_lock(token_mu_);
    tokens_.clear();
    for (const RecoveredTx& tx : rec.committed) {
      if (tx.commit_token != 0) tokens_[tx.commit_token] = {tx.tx, true};
    }
  }
  {
    // Pending signals referenced the dead controller generation.
    std::lock_guard<std::mutex> hub_lock(hub_mu_);
    std::fill(woken_.begin(), woken_.end(), 0);
    std::fill(forced_.begin(), forced_.end(), 0);
  }
  // Sessions still holding a pre-crash attempt reset it at their next Begin.
  generation_.fetch_add(1, std::memory_order_acq_rel);
  killed_.store(false, std::memory_order_release);
  return rec;
}

int Engine::AllocateTxId() {
  return next_tx_.fetch_add(1, std::memory_order_relaxed);
}

void Engine::CoverLocked(int tx) {
  if (static_cast<int>(woken_.size()) <= tx) {
    woken_.resize(static_cast<size_t>(tx) + 1, 0);
    forced_.resize(static_cast<size_t>(tx) + 1, 0);
  }
}

void Engine::EnsureTxSlots(int n) {
  std::lock_guard<std::mutex> hub_lock(hub_mu_);
  CoverLocked(n - 1);
}

void Engine::DrainSignals() {
  std::vector<int> forced = controller_->TakeForcedAborts();
  std::vector<int> woken = controller_->TakeWakeups();
  // Fault injection: drop this batch of wakeups. Forced aborts are never
  // dropped — they are correctness signals; wakeups are liveness hints
  // whose loss the parked owners' poll backoff must absorb.
  if (!woken.empty() && NONSERIAL_FAILPOINT("driver.lost_wakeup")) {
    woken.clear();
  }
  if (forced.empty() && woken.empty()) return;
  {
    std::lock_guard<std::mutex> hub_lock(hub_mu_);
    int max_id = 0;
    for (int tx : forced) max_id = std::max(max_id, tx);
    for (int tx : woken) max_id = std::max(max_id, tx);
    CoverLocked(max_id);
    for (int tx : forced) forced_[tx] = 1;
    for (int tx : woken) woken_[tx] = 1;
  }
  hub_cv_.notify_all();
}

bool Engine::AwaitSignal(int tx, int64_t wait_us, int64_t* blocked_us) {
  Clock::time_point parked = Clock::now();
  bool forced;
  {
    std::unique_lock<std::mutex> hub_lock(hub_mu_);
    CoverLocked(tx);
    hub_cv_.wait_for(hub_lock, std::chrono::microseconds(wait_us), [&] {
      return woken_[tx] != 0 || forced_[tx] != 0 ||
             stopping_.load(std::memory_order_relaxed) ||
             killed_.load(std::memory_order_relaxed);
    });
    woken_[tx] = 0;
    forced = forced_[tx] != 0;
  }
  int64_t blocked = ElapsedUs(parked);
  if (blocked_us != nullptr) *blocked_us += blocked;
  metrics()->wait_micros.Record(blocked);
  return forced;
}

bool Engine::ForcedPending(int tx) {
  std::lock_guard<std::mutex> hub_lock(hub_mu_);
  return static_cast<int>(forced_.size()) > tx && forced_[tx] != 0;
}

Engine::Signal Engine::TakeSignal(int tx) {
  std::lock_guard<std::mutex> hub_lock(hub_mu_);
  if (static_cast<int>(woken_.size()) <= tx) return Signal::kNone;
  if (forced_[tx] != 0) return Signal::kForced;
  if (woken_[tx] == 0) return Signal::kNone;
  woken_[tx] = 0;
  return Signal::kWoken;
}

void Engine::ClearSignals(int tx) {
  std::lock_guard<std::mutex> hub_lock(hub_mu_);
  CoverLocked(tx);
  woken_[tx] = 0;
  forced_[tx] = 0;
}

std::unique_ptr<Session> Engine::OpenSession() {
  metrics()->server_sessions_opened.Add();
  return std::unique_ptr<Session>(new Session(
      this, AllocateTxId(), generation_.load(std::memory_order_acquire)));
}

bool Engine::TryAdmit() {
  ProtocolMetrics* m = metrics();
  auto shed = [m] {
    m->server_shed.Add();
    return false;
  };
  if (stopping_.load(std::memory_order_acquire)) return shed();
  if (options_.max_inflight_tx > 0) {
    int cur = inflight_.load(std::memory_order_relaxed);
    do {
      if (cur >= options_.max_inflight_tx) return shed();
    } while (!inflight_.compare_exchange_weak(cur, cur + 1,
                                              std::memory_order_relaxed));
  } else {
    inflight_.fetch_add(1, std::memory_order_relaxed);
  }
  if (options_.max_wal_backlog_frames > 0 && options_.wal != nullptr &&
      options_.wal->PipelineDepth() > options_.max_wal_backlog_frames) {
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    return shed();
  }
  m->server_accepted.Add();
  m->server_inflight.Record(inflight_.load(std::memory_order_relaxed));
  return true;
}

void Engine::ReleaseAdmission() {
  inflight_.fetch_sub(1, std::memory_order_relaxed);
}

void Engine::OnSessionClosed() { metrics()->server_sessions_closed.Add(); }

void Engine::RetireTx(int tx) {
  if (!options_.retire_terminated_tx || tx < 0) return;
  std::lock_guard<std::mutex> retire_lock(retire_mu_);
  retire_pending_.push_back(tx);
  // Commit order respects P (rule 1), so a predecessor usually terminates
  // while its successors are still live and parks here; the successor's own
  // retirement then unblocks it. Drain to a fixpoint — one retirement can
  // cascade through a whole chain of parked predecessors.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = retire_pending_.begin(); it != retire_pending_.end();) {
      if (controller_->Retire(*it)) {
        metrics()->engine_retired_tx.Add();
        it = retire_pending_.erase(it);
        progress = true;
      } else {
        ++it;
      }
    }
  }
}

Engine::TokenState Engine::LookupCommitToken(uint64_t token, int* tx) const {
  if (token == 0) return TokenState::kAbsent;
  std::lock_guard<std::mutex> token_lock(token_mu_);
  auto it = tokens_.find(token);
  if (it == tokens_.end()) return TokenState::kAbsent;
  if (!it->second.committed) return TokenState::kPending;
  if (tx != nullptr) *tx = it->second.tx;
  return TokenState::kCommitted;
}

Session::~Session() {
  (void)Abort();
  // An aborted id of the live controller is abandoned now; retire it so
  // churned sessions do not inflate the controller's live scan set. (A
  // committed id was retired by Commit; an id never registered, or only
  // with a controller a crash replaced, leaves nothing behind.)
  if (id_state_ == IdState::kRegistered &&
      generation_ == engine_->generation_.load(std::memory_order_acquire)) {
    engine_->RetireTx(tx_);
  }
  engine_->OnSessionClosed();
}

void Session::AbortActive() {
  // An attempt that outlived its controller (crash-kill) is abandoned, not
  // rolled back: only the log survives a crash, so no rollback record may
  // reach it.
  if (generation_ == engine_->generation_.load(std::memory_order_acquire)) {
    engine_->controller()->Abort(tx_);
    engine_->DrainSignals();
  }
  active_ = false;
  engine_->ReleaseAdmission();
}

Session::Step Session::Fail() {
  static const char* const kAborted[] = {
      "", "begin: attempt aborted by the protocol",
      "read: attempt aborted by the protocol",
      "write: attempt aborted by the protocol",
      "commit: attempt aborted by the protocol"};
  Request failed = pending_;
  NONSERIAL_CHECK(failed != Request::kNone) << "Fail without a request";
  if (failed == Request::kCommit && pending_token_ != 0) {
    // The commit never happened; a resend of this token must re-execute,
    // so the pending entry must not linger.
    std::lock_guard<std::mutex> token_lock(engine_->token_mu_);
    engine_->tokens_.erase(pending_token_);
  }
  pending_ = Request::kNone;
  AbortActive();
  return Status::Aborted(kAborted[static_cast<int>(failed)]);
}

bool Session::WaitForTurn(int64_t* poll_us) {
  bool forced = engine_->AwaitSignal(tx_, *poll_us, &blocked_us_);
  const EngineOptions& o = engine_->options();
  *poll_us = std::min(*poll_us * 2, std::max(o.max_poll_us, o.poll_us));
  if (forced || engine_->shutting_down() ||
      engine_->killed_.load(std::memory_order_acquire)) {
    return false;
  }
  if (o.max_blocked_us > 0 && blocked_us_ > o.max_blocked_us) {
    engine_->metrics()->deadline_aborts.Add();
    return false;
  }
  return true;
}

StatusOr<Value> Session::Await(Step step) {
  int64_t poll_us = std::max<int64_t>(1, engine_->options().poll_us);
  while (!step.has_value()) {
    step = WaitForTurn(&poll_us) ? Resume() : Fail();
  }
  return *std::move(step);
}

Status Session::Begin(const engine::TxSpec& spec) {
  return Await(StartBegin(spec)).status();
}

StatusOr<Value> Session::Read(EntityId e) { return Await(StartRead(e)); }

Status Session::Write(EntityId e, Value value) {
  return Await(StartWrite(e, value)).status();
}

Status Session::Commit(uint64_t token) {
  return Await(StartCommit(token)).status();
}

Session::Step Session::StartBegin(const engine::TxSpec& spec) {
  if (engine_->killed_.load(std::memory_order_acquire)) {
    return Status::Aborted("begin: engine crashed; awaiting recovery");
  }
  uint64_t generation = engine_->generation_.load(std::memory_order_acquire);
  if (generation_ != generation) {
    // A crash replaced the controller this session last used: its attempt
    // is gone without a rollback, and its id is free again unless recovery
    // re-adopted it as committed.
    if (active_) {
      active_ = false;
      engine_->ReleaseAdmission();
    }
    bool recovered = id_state_ == IdState::kCommitted &&
                     engine_->cep() != nullptr &&
                     engine_->cep()->IsCommitted(tx_);
    id_state_ = recovered ? IdState::kCommitted : IdState::kFresh;
    generation_ = generation;
  }
  if (active_ || pending_ != Request::kNone) {
    return Status::FailedPrecondition(
        "begin: session already has an open transaction");
  }
  if (engine_->shutting_down()) {
    return Status::Aborted("begin: engine shutting down");
  }
  if (!engine_->TryAdmit()) {
    return Status::ResourceExhausted(
        "begin: admission control shed the transaction; retry later");
  }
  // Predecessors must name allocated transactions other than this session's
  // own uncommitted id.
  const int allocated = engine_->next_tx_.load(std::memory_order_acquire);
  bool fresh_id = id_state_ == IdState::kCommitted;
  for (int pred : spec.predecessors) {
    if (pred < 0 || pred >= allocated ||
        (pred == tx_ && id_state_ != IdState::kCommitted)) {
      engine_->ReleaseAdmission();
      return Status::InvalidArgument(
          "begin: predecessor ids must name earlier transactions");
    }
    fresh_id |= pred > tx_;
    if (engine_->controller()->IsRetired(pred)) {
      // Naming a retired id would re-attach a live successor to it and
      // break the retirement invariant the protocol's live scans rely on.
      engine_->ReleaseAdmission();
      return Status::InvalidArgument(
          "begin: predecessor was retired (terminated long ago)");
    }
  }
  // An aborted attempt's id is reused, so abort-retry churn cannot grow the
  // controller's per-transaction state without bound. A committed id is
  // terminal, and ids follow P (every predecessor has a smaller id), so
  // either case takes a fresh id; an aborted id given up this way retires.
  if (fresh_id) {
    if (id_state_ == IdState::kRegistered) engine_->RetireTx(tx_);
    tx_ = engine_->AllocateTxId();
    id_state_ = IdState::kFresh;
  }
  engine_->EnsureTxSlots(tx_ + 1);
  engine_->controller()->Register(tx_, spec);
  id_state_ = IdState::kRegistered;
  engine_->ClearSignals(tx_);
  pending_ = Request::kBegin;
  blocked_us_ = 0;
  return Resume();
}

Session::Step Session::StartRead(EntityId e) {
  return StartData(Request::kRead, e, 0);
}

Session::Step Session::StartWrite(EntityId e, Value value) {
  return StartData(Request::kWrite, e, value);
}

Session::Step Session::StartData(Request request, EntityId e, Value value) {
  const char* op = request == Request::kRead ? "read" : "write";
  if (!active_ || pending_ != Request::kNone) {
    return Status::FailedPrecondition(StrCat(op, ": no open transaction"));
  }
  if (e < 0 || e >= engine_->store()->num_entities()) {
    return Status::InvalidArgument(StrCat(op, ": entity id out of range"));
  }
  pending_ = request;
  pending_entity_ = e;
  pending_value_ = value;
  blocked_us_ = 0;
  if (request == Request::kRead && engine_->ForcedPending(tx_)) return Fail();
  return Resume();
}

Session::Step Session::StartCommit(uint64_t token) {
  if (!active_ || pending_ != Request::kNone) {
    return Status::FailedPrecondition("commit: no open transaction");
  }
  if (token != 0) {
    // Claim the token atomically: staged pending iff no *other* transaction
    // holds it in any state (a concurrent lookup must see the commit as in
    // flight, not absent). Two racing commits carrying the same token must
    // not both execute — the loser sheds here, before any apply, so
    // exactly-once holds server-side rather than by client discipline.
    {
      std::lock_guard<std::mutex> token_lock(engine_->token_mu_);
      auto [it, claimed] =
          engine_->tokens_.try_emplace(token, Engine::TokenEntry{tx_, false});
      if (!claimed && it->second.tx != tx_) {
        return Status::ResourceExhausted(
            "commit: token already claimed by another transaction; retry "
            "later");
      }
    }
    // Attach the token to the transaction so the protocol logs it durably
    // next to the commit record.
    if (engine_->cep() != nullptr) engine_->cep()->SetCommitToken(tx_, token);
  }
  pending_ = Request::kCommit;
  pending_token_ = token;
  blocked_us_ = 0;
  return Resume();
}

Session::Step Session::Resume() {
  ConcurrencyController* cc = engine_->controller();
  engine::RequestOutcome r = engine::RequestOutcome::kBlocked;
  Value value = 0;
  switch (pending_) {
    case Request::kBegin:
      r = cc->Begin(tx_);
      break;
    case Request::kRead:
      r = cc->Read(tx_, pending_entity_, &value);
      break;
    case Request::kWrite:
      r = cc->Write(tx_, pending_entity_, pending_value_);
      break;
    case Request::kCommit:
      r = cc->Commit(tx_);
      break;
    case Request::kNone:
      return Status::FailedPrecondition("resume: no blocked request");
  }
  engine_->DrainSignals();
  if (r == engine::RequestOutcome::kAborted) return Fail();
  if (r == engine::RequestOutcome::kBlocked) return std::nullopt;
  switch (pending_) {
    case Request::kBegin:
      active_ = true;
      break;
    case Request::kWrite:
      // A forced abort that raced the write skips WriteDone — Abort's
      // ReleaseAll drops the W hold.
      if (engine_->ForcedPending(tx_)) return Fail();
      cc->WriteDone(tx_, pending_entity_);
      engine_->DrainSignals();
      value = pending_value_;
      break;
    case Request::kCommit:
      if (pending_token_ != 0) {
        std::lock_guard<std::mutex> token_lock(engine_->token_mu_);
        engine_->tokens_[pending_token_] = {tx_, true};
      }
      engine_->metrics()->span_commit_wait.Record(blocked_us_);
      active_ = false;
      id_state_ = IdState::kCommitted;
      engine_->ReleaseAdmission();
      engine_->RetireTx(tx_);
      break;
    case Request::kRead:
    case Request::kNone:
      break;
  }
  pending_ = Request::kNone;
  return value;
}

Status Session::Abort() {
  if (pending_ != Request::kNone) {
    (void)Fail();
  } else if (active_) {
    AbortActive();
  }
  return Status::OK();
}

}  // namespace nonserial
