// Fault-tolerance layer tests: the net.* failpoint catalog on the server's
// send path, the RetryingClient's reconnect/backoff/resend machinery, the
// exactly-once commit-token protocol (including across crash recovery),
// session leases, and engine-level transaction retirement. The full
// randomized sweep lives in tools/wire_chaos (gated in CI); these are the
// deterministic single-fault versions of each ingredient.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "engine/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "storage/wal.h"

namespace nonserial {
namespace {

Predicate Wide() {
  Predicate p;
  for (EntityId e = 0; e < 2; ++e) {
    p.AddClause(Clause({EntityVsConst(e, CompareOp::kGe, 0)}));
    p.AddClause(Clause({EntityVsConst(e, CompareOp::kLe, 1'000)}));
  }
  return p;
}

/// Arms `name` to fire exactly once, skipping the first `skip` evaluations.
ScopedFailpoint FireOnce(const std::string& name, int64_t skip = 0) {
  FailpointSpec spec;
  spec.probability = 1.0;
  spec.skip_first = skip;
  spec.max_fires = 1;
  return ScopedFailpoint(name, spec);
}

class WireResilienceTest : public ::testing::Test {
 protected:
  void StartServer(int64_t lease_ms = 0, bool retire = true) {
    wal_ = std::make_unique<WriteAheadLog>(ValueVector{50, 50});
    EngineOptions options;
    options.initial = {50, 50};
    options.wal = wal_.get();
    options.retire_terminated_tx = retire;
    options.protocol.metrics = &metrics_;
    options.poll_us = 100;
    options.max_poll_us = 1'000;
    engine_ = std::make_unique<Engine>(std::move(options));
    ServerOptions server_options;
    server_options.lease_ms = lease_ms;
    server_ = std::make_unique<SessionServer>(engine_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    FailpointRegistry::Global().DisarmAll();
    if (engine_ != nullptr) engine_->Shutdown();
    if (server_ != nullptr) server_->Stop();
  }

  RetryingClientOptions RetryOptions() {
    RetryingClientOptions options;
    options.port = server_->port();
    options.op_deadline_ms = 200;
    options.backoff_base_us = 100;
    options.backoff_max_us = 2'000;
    options.seed = 7;
    return options;
  }

  ProtocolMetrics metrics_;
  std::unique_ptr<WriteAheadLog> wal_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<SessionServer> server_;
};

TEST_F(WireResilienceTest, RetryingClientCompletesWithoutFaults) {
  StartServer();
  RetryingClient client(RetryOptions());
  ASSERT_TRUE(client.StagePredicates(Wide(), Wide()).ok());
  for (int i = 0; i < 3; ++i) {
    StatusOr<int> tx = client.Begin("plain", {});
    ASSERT_TRUE(tx.ok()) << tx.status().ToString();
    StatusOr<Value> v = client.Read(0);
    ASSERT_TRUE(v.ok());
    ASSERT_TRUE(client.Write(0, 60 + i).ok());
    ASSERT_TRUE(client.Commit().ok());
  }
  EXPECT_EQ(engine_->store()->LatestCommittedSnapshot(), (ValueVector{62, 50}));
  EXPECT_EQ(client.stats().reconnects, 1);  // The lazy initial connect only.
  EXPECT_EQ(client.stats().transport_errors, 0);
}

TEST_F(WireResilienceTest, DroppedResponseFrameIsRetriedTransparently) {
  StartServer();
  RetryingClient client(RetryOptions());
  ASSERT_TRUE(client.StagePredicates(Wide(), Wide()).ok());
  // Drop the BEGIN ack: the client times out the receive, reconnects,
  // re-stages its predicates, and retries — the caller never notices.
  auto drop = FireOnce("net.drop_frame", /*skip=*/1);
  StatusOr<int> tx = client.Begin("dropped", {});
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  ASSERT_TRUE(client.Write(0, 70).ok());
  ASSERT_TRUE(client.Commit().ok());
  EXPECT_GE(client.stats().transport_errors, 1);
  EXPECT_GE(client.stats().reconnects, 2);
  EXPECT_EQ(engine_->store()->LatestCommittedSnapshot()[0], 70);
}

TEST_F(WireResilienceTest, CorruptFrameDisconnectsButClientRecovers) {
  StartServer();
  RetryingClient client(RetryOptions());
  ASSERT_TRUE(client.StagePredicates(Wide(), Wide()).ok());
  auto corrupt = FireOnce("net.corrupt_frame");
  StatusOr<int> tx = client.Begin("corrupted", {});
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  ASSERT_TRUE(client.Write(1, 75).ok());
  ASSERT_TRUE(client.Commit().ok());
  EXPECT_GE(client.stats().transport_errors, 1);
  EXPECT_EQ(engine_->store()->LatestCommittedSnapshot()[1], 75);
}

TEST_F(WireResilienceTest, PartialWriteTearsConnectionMidFrame) {
  StartServer();
  RetryingClient client(RetryOptions());
  ASSERT_TRUE(client.StagePredicates(Wide(), Wide()).ok());
  auto tear = FireOnce("net.partial_write");
  StatusOr<int> tx = client.Begin("torn", {});
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  ASSERT_TRUE(client.Write(0, 80).ok());
  ASSERT_TRUE(client.Commit().ok());
  EXPECT_GE(client.stats().transport_errors, 1);
  EXPECT_EQ(engine_->store()->LatestCommittedSnapshot()[0], 80);
}

TEST_F(WireResilienceTest, LostCommitAckIsAnsweredFromTokenTable) {
  StartServer();
  RetryingClient client(RetryOptions());
  ASSERT_TRUE(client.StagePredicates(Wide(), Wide()).ok());
  StatusOr<int> tx = client.Begin("acked_once", {});
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  ASSERT_TRUE(client.Write(0, 90).ok());
  // The commit executes and commits durably server-side, but the ack is
  // never sent and the connection drops. The resend (same token) must be
  // answered from the token table — not re-executed.
  auto lost_ack = FireOnce("net.disconnect_before_commit_ack");
  int64_t retries_before = metrics_.server_retries.value();
  ASSERT_TRUE(client.Commit().ok());
  EXPECT_EQ(client.stats().commit_resends, 1);
  EXPECT_EQ(client.stats().commit_replays, 1);
  EXPECT_EQ(metrics_.server_retries.value(), retries_before + 1);
  // Exactly one apply: the committed value landed once.
  EXPECT_EQ(engine_->store()->LatestCommittedSnapshot()[0], 90);
  int committed_tx = -1;
  EXPECT_EQ(engine_->LookupCommitToken(client.last_commit_token(),
                                       &committed_tx),
            Engine::TokenState::kCommitted);
  EXPECT_EQ(committed_tx, *tx);
}

TEST_F(WireResilienceTest, CommitTokenSurvivesCrashRecovery) {
  StartServer();
  RetryingClient client(RetryOptions());
  ASSERT_TRUE(client.StagePredicates(Wide(), Wide()).ok());
  ASSERT_TRUE(client.Begin("durable", {}).ok());
  ASSERT_TRUE(client.Write(0, 95).ok());
  ASSERT_TRUE(client.Commit().ok());
  uint64_t token = client.last_commit_token();
  int committed_tx = client.tx();
  client.Disconnect();

  // Crash-kill + recover: the token table is rebuilt from the WAL's
  // kCommitToken records, so a resend after restart still replays.
  server_->Stop();
  RecoveryResult rec = engine_->CrashRecover(RecoveryOptions{});
  ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
  ASSERT_EQ(rec.committed.size(), 1u);
  EXPECT_EQ(rec.committed[0].commit_token, token);
  server_ = std::make_unique<SessionServer>(engine_.get(), ServerOptions{});
  ASSERT_TRUE(server_->Start().ok());

  Client raw;
  ASSERT_TRUE(raw.Connect("127.0.0.1", server_->port()).ok());
  // Resending the committed token on a brand-new session (no open
  // transaction) replays the original verdict and tx id.
  wire::Request request;
  request.type = wire::MsgType::kCommit;
  request.token = token;
  StatusOr<wire::Response> response = raw.Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kOk);
  EXPECT_EQ(response->value, committed_tx);
  // An unknown token on the same idle session means "never committed".
  request.token = token + 1;
  response = raw.Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kFailedPrecondition);
}

TEST_F(WireResilienceTest, LeaseReclaimsAbandonedSession) {
  StartServer(/*lease_ms=*/30);
  Client abandoned;
  ASSERT_TRUE(abandoned.Connect("127.0.0.1", server_->port()).ok());
  StatusOr<int> tx = abandoned.Begin("silent", {}, Wide(), Wide());
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  ASSERT_EQ(engine_->inflight(), 1);
  // Client goes silent; the lease sweep must close the connection, roll
  // the transaction back, and release the admission slot.
  bool reclaimed = false;
  for (int i = 0; i < 400 && !reclaimed; ++i) {
    reclaimed =
        server_->active_connections() == 0 && engine_->inflight() == 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(reclaimed);
  EXPECT_GE(metrics_.server_lease_expired.value(), 1);
}

TEST_F(WireResilienceTest, ActiveSessionOutlivesItsLease) {
  StartServer(/*lease_ms=*/200);
  RetryingClient client(RetryOptions());
  ASSERT_TRUE(client.StagePredicates(Wide(), Wide()).ok());
  // Keep pausing for a fraction of the lease between requests: activity
  // renews the lease, so a live conversation is never reclaimed.
  for (int i = 0; i < 4; ++i) {
    StatusOr<int> tx = client.Begin("alive", {});
    ASSERT_TRUE(tx.ok()) << tx.status().ToString();
    ASSERT_TRUE(client.Write(0, 60 + i).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    ASSERT_TRUE(client.Commit().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }
  EXPECT_EQ(metrics_.server_lease_expired.value(), 0);
  EXPECT_EQ(engine_->store()->LatestCommittedSnapshot()[0], 63);
}

TEST_F(WireResilienceTest, CommittedSessionTransactionsRetire) {
  StartServer();
  RetryingClient client(RetryOptions());
  ASSERT_TRUE(client.StagePredicates(Wide(), Wide()).ok());
  constexpr int kTxs = 20;
  for (int i = 0; i < kTxs; ++i) {
    ASSERT_TRUE(client.Begin("churn", {}).ok());
    ASSERT_TRUE(client.Write(0, 100 + i).ok());
    ASSERT_TRUE(client.Commit().ok());
  }
  // Every committed, independent transaction is immediately eligible: the
  // live scan set stays O(1) instead of O(total transactions).
  EXPECT_EQ(metrics_.engine_retired_tx.value(), kTxs);
  EXPECT_EQ(engine_->metrics()->engine_retired_tx.value(), kTxs);
  for (int tx = 0; tx < kTxs; ++tx) {
    EXPECT_TRUE(engine_->controller()->IsRetired(tx)) << "tx " << tx;
  }
  // Retired ids are terminal: naming one as a predecessor is rejected.
  StatusOr<int> tx = client.Begin("late", {0});
  EXPECT_EQ(tx.status().code(), StatusCode::kInvalidArgument);
  // And the store still serves the latest committed value.
  ASSERT_TRUE(client.Begin("reader", {}).ok());
  StatusOr<Value> v = client.Read(0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 100 + kTxs - 1);
  ASSERT_TRUE(client.Commit().ok());
}

TEST_F(WireResilienceTest, IdenticallySeededClientsDrawDistinctTokens) {
  StartServer();
  // Two clients with byte-identical options (same seed, as two processes
  // running the defaults would): their commit tokens must still differ.
  // The server's token table is keyed by token alone, so a shared stream
  // would answer one client's commit with the other's verdict — silently
  // dropping its writes while reporting OK.
  RetryingClient a(RetryOptions());
  RetryingClient b(RetryOptions());
  ASSERT_TRUE(a.StagePredicates(Wide(), Wide()).ok());
  ASSERT_TRUE(b.StagePredicates(Wide(), Wide()).ok());
  ASSERT_TRUE(a.Begin("a", {}).ok());
  ASSERT_TRUE(a.Write(0, 61).ok());
  ASSERT_TRUE(a.Commit().ok());
  ASSERT_TRUE(b.Begin("b", {}).ok());
  ASSERT_TRUE(b.Write(1, 62).ok());
  ASSERT_TRUE(b.Commit().ok());
  EXPECT_NE(a.last_commit_token(), b.last_commit_token());
  // Both commits applied — neither was mistaken for a replay of the other.
  EXPECT_EQ(engine_->store()->LatestCommittedSnapshot(), (ValueVector{61, 62}));
}

TEST_F(WireResilienceTest, DeterministicTokensAreAnExplicitOptIn) {
  StartServer();
  RetryingClientOptions options = RetryOptions();
  options.deterministic_tokens = true;
  RetryingClient a(options);
  ASSERT_TRUE(a.StagePredicates(Wide(), Wide()).ok());
  ASSERT_TRUE(a.Begin("a", {}).ok());
  ASSERT_TRUE(a.Write(0, 64).ok());
  ASSERT_TRUE(a.Commit().ok());
  // Same seed, same stream: a replay harness reproduces the exact token
  // sequence. This is also why live clients must not share a seed in this
  // mode — b's identical first token is answered from the token table as
  // a replay of a's commit, and b's write never applies.
  RetryingClient b(options);
  ASSERT_TRUE(b.StagePredicates(Wide(), Wide()).ok());
  ASSERT_TRUE(b.Begin("b", {}).ok());
  ASSERT_TRUE(b.Write(1, 65).ok());
  ASSERT_TRUE(b.Commit().ok());
  EXPECT_EQ(b.last_commit_token(), a.last_commit_token());
  EXPECT_EQ(engine_->store()->LatestCommittedSnapshot(), (ValueVector{64, 50}));
}

TEST_F(WireResilienceTest, NonAbortingErrorKeepsTransactionOpen) {
  StartServer();
  RetryingClient client(RetryOptions());
  ASSERT_TRUE(client.StagePredicates(Wide(), Wide()).ok());
  ASSERT_TRUE(client.Begin("survivor", {}).ok());
  // An out-of-range entity is a per-request error: the server answers
  // kInvalidArgument and keeps the transaction open. The client must not
  // declare the transaction dead, or the two ends desync (the server still
  // holds the open transaction and its admission slot, and the client's
  // next Begin would bounce off "session already has an open transaction").
  StatusOr<Value> bad_read = client.Read(99);
  EXPECT_EQ(bad_read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.in_transaction());
  Status bad_write = client.Write(99, 1);
  EXPECT_EQ(bad_write.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(client.in_transaction());
  // The same transaction carries on and commits.
  ASSERT_TRUE(client.Write(0, 55).ok());
  ASSERT_TRUE(client.Commit().ok());
  EXPECT_EQ(engine_->store()->LatestCommittedSnapshot()[0], 55);
}

TEST_F(WireResilienceTest, UnresolvedCommitStaysResolvable) {
  StartServer();
  RetryingClient client(RetryOptions());
  ASSERT_TRUE(client.StagePredicates(Wide(), Wide()).ok());
  ASSERT_TRUE(client.Begin("unresolved", {}).ok());
  ASSERT_TRUE(client.Write(0, 77).ok());
  // Kill the server: every commit attempt dies in transport and the retry
  // budget runs out with the verdict genuinely unknown.
  int port = server_->port();
  server_->Stop();
  Status commit = client.Commit();
  EXPECT_EQ(commit.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(client.commit_pending());
  uint64_t token = client.last_commit_token();
  EXPECT_NE(token, 0u);
  // Until the verdict resolves, new work and aborts are refused — the
  // commit may or may not have applied, and only its token can tell.
  EXPECT_EQ(client.Begin("next", {}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(client.Abort().code(), StatusCode::kFailedPrecondition);
  // Restart on the same port; Commit() resumes with the *same* token and
  // learns the truth: the transaction died with its server session, so it
  // never committed.
  ServerOptions server_options;
  server_options.port = port;
  Status start;
  for (int i = 0; i < 100; ++i) {
    server_ = std::make_unique<SessionServer>(engine_.get(), server_options);
    start = server_->Start();
    if (start.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(start.ok()) << start.ToString();
  commit = client.Commit();
  EXPECT_EQ(commit.code(), StatusCode::kAborted);
  EXPECT_FALSE(client.commit_pending());
  EXPECT_EQ(client.last_commit_token(), token);
  // The session is whole again: a fresh transaction commits normally.
  ASSERT_TRUE(client.Begin("after", {}).ok());
  ASSERT_TRUE(client.Write(0, 78).ok());
  ASSERT_TRUE(client.Commit().ok());
  EXPECT_EQ(engine_->store()->LatestCommittedSnapshot()[0], 78);
}

TEST_F(WireResilienceTest, CommitTokenClaimIsExclusive) {
  StartServer();
  // Engine-level exactly-once: the token claim in Session::Commit is
  // atomic, so a second transaction presenting an already-used token is
  // shed before it executes — the server does not depend on client
  // discipline (or the wire pre-check) to prevent a double apply.
  engine::TxSpec spec;
  spec.name = "claimer";
  spec.input = Wide();
  spec.output = Wide();
  std::unique_ptr<Session> s1 = engine_->OpenSession();
  ASSERT_TRUE(s1->Begin(spec).ok());
  ASSERT_TRUE(s1->Write(0, 71).ok());
  ASSERT_TRUE(s1->Commit(/*token=*/1234).ok());
  std::unique_ptr<Session> s2 = engine_->OpenSession();
  spec.name = "loser";
  ASSERT_TRUE(s2->Begin(spec).ok());
  ASSERT_TRUE(s2->Write(1, 72).ok());
  Status reuse = s2->Commit(/*token=*/1234);
  EXPECT_EQ(reuse.code(), StatusCode::kResourceExhausted);
  // The shed commit did not execute and did not kill the transaction: the
  // same transaction commits under its own token.
  EXPECT_TRUE(s2->in_transaction());
  ASSERT_TRUE(s2->Commit(/*token=*/5678).ok());
  EXPECT_EQ(engine_->store()->LatestCommittedSnapshot(), (ValueVector{71, 72}));
  int committed_tx = -1;
  ASSERT_EQ(engine_->LookupCommitToken(1234, &committed_tx),
            Engine::TokenState::kCommitted);
  EXPECT_EQ(committed_tx, s1->tx());
}

TEST_F(WireResilienceTest, RetirementOffByDefaultKeepsIdsLive) {
  StartServer(/*lease_ms=*/0, /*retire=*/false);
  RetryingClient client(RetryOptions());
  ASSERT_TRUE(client.StagePredicates(Wide(), Wide()).ok());
  ASSERT_TRUE(client.Begin("first", {}).ok());
  ASSERT_TRUE(client.Write(0, 70).ok());
  ASSERT_TRUE(client.Commit().ok());
  EXPECT_EQ(metrics_.engine_retired_tx.value(), 0);
  EXPECT_FALSE(engine_->controller()->IsRetired(0));
  // Without retirement, committed ids remain valid P-predecessors.
  StatusOr<int> tx = client.Begin("second", {0});
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  ASSERT_TRUE(client.Commit().ok());
}

}  // namespace
}  // namespace nonserial
