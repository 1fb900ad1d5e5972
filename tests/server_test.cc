// End-to-end tests for the networked front end: full transaction
// lifecycles over TCP, staged predicates, admission shedding on the wire,
// teardown ordering with live clients — and the headline check that the
// protocol's verdict is transport-independent: a write-skew interleaving
// driven across two TCP sessions must land exactly where the in-process
// session API lands it (both commit — correctness without serializability).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "server/client.h"
#include "server/server.h"

namespace nonserial {
namespace {

// The write-skew guard: both entities still at-or-below the initial 50.
Predicate BothBelow50() {
  Predicate p;
  p.AddClause(Clause({EntityVsConst(0, CompareOp::kLe, 50)}));
  p.AddClause(Clause({EntityVsConst(1, CompareOp::kLe, 50)}));
  return p;
}

EngineOptions BaseOptions(ProtocolMetrics* metrics = nullptr) {
  EngineOptions options;
  options.initial = {50, 50};
  options.protocol.metrics = metrics;
  options.poll_us = 100;
  options.max_poll_us = 1'000;
  return options;
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(EngineOptions engine_options, int num_workers = 4) {
    engine_ = std::make_unique<Engine>(std::move(engine_options));
    ServerOptions server_options;
    server_options.num_workers = num_workers;
    server_ = std::make_unique<SessionServer>(engine_.get(), server_options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    // The one safe order: wake parked sessions first, then stop the server.
    if (engine_ != nullptr) engine_->Shutdown();
    if (server_ != nullptr) server_->Stop();
  }

  Status Connect(Client* client) {
    return client->Connect("127.0.0.1", server_->port());
  }

  ProtocolMetrics metrics_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<SessionServer> server_;
};

TEST_F(ServerTest, PingAndConnectionAccounting) {
  StartServer(BaseOptions(&metrics_));
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  StatusOr<Value> pong = client.Ping(31337);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(*pong, 31337);
  EXPECT_EQ(server_->active_connections(), 1);
  EXPECT_GE(metrics_.server_requests.value(), 1);
  EXPECT_GE(metrics_.server_queue_depth.count(), 1);
}

TEST_F(ServerTest, FullTransactionLifecycleOverTcp) {
  StartServer(BaseOptions(&metrics_));
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  StatusOr<int> tx = client.Begin("t0", {}, Range(0, 0, 100), Range(0, 0, 100));
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  StatusOr<Value> v = client.Read(0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 50);
  ASSERT_TRUE(client.Write(0, 60).ok());
  v = client.Read(0);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 60);  // Own write visible through the wire.
  ASSERT_TRUE(client.Commit().ok());
  EXPECT_EQ(engine_->store()->LatestCommittedSnapshot(), (ValueVector{60, 50}));
}

TEST_F(ServerTest, StagedPredicatesDriveBegin) {
  StartServer(BaseOptions(&metrics_));
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  // BEGIN(use_staged) without a prior PREDICATE frame is a sequence error.
  EXPECT_EQ(client.BeginStaged("early", {}).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(
      client.StagePredicates(Range(0, 0, 100), Range(0, 0, 100)).ok());
  // The staged spec survives abort-retry loops: use it twice.
  StatusOr<int> tx = client.BeginStaged("staged", {});
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  ASSERT_TRUE(client.Abort().ok());
  tx = client.BeginStaged("staged-retry", {});
  ASSERT_TRUE(tx.ok()) << tx.status().ToString();
  ASSERT_TRUE(client.Write(0, 70).ok());
  ASSERT_TRUE(client.Commit().ok());
  EXPECT_EQ(engine_->store()->LatestCommittedSnapshot(), (ValueVector{70, 50}));
}

TEST_F(ServerTest, DroppedConnectionRollsItsTransactionBack) {
  StartServer(BaseOptions(&metrics_));
  {
    Client client;
    ASSERT_TRUE(Connect(&client).ok());
    ASSERT_TRUE(
        client.Begin("doomed", {}, Predicate::True(), Predicate::True()).ok());
    ASSERT_TRUE(client.Write(0, 99).ok());
    // Client vanishes mid-transaction.
  }
  // The server notices the close and the session destructor rolls back.
  for (int i = 0; i < 200 && engine_->inflight() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(engine_->inflight(), 0);
  EXPECT_EQ(engine_->store()->LatestCommittedSnapshot(), (ValueVector{50, 50}));
}

TEST_F(ServerTest, AdmissionShedSurfacesAsRetryLaterOnTheWire) {
  EngineOptions options = BaseOptions(&metrics_);
  options.max_inflight_tx = 1;
  StartServer(options);
  Client first, second;
  ASSERT_TRUE(Connect(&first).ok());
  ASSERT_TRUE(Connect(&second).ok());
  ASSERT_TRUE(
      first.Begin("a", {}, Predicate::True(), Predicate::True()).ok());
  // Budget exhausted: the wire answer is RETRY_LATER, not a hang.
  EXPECT_EQ(
      second.Begin("b", {}, Predicate::True(), Predicate::True()).status().code(),
      StatusCode::kResourceExhausted);
  ASSERT_TRUE(first.Commit().ok());
  // The client retries and gets in.
  EXPECT_TRUE(
      second.Begin("b", {}, Predicate::True(), Predicate::True()).ok());
  ASSERT_TRUE(second.Commit().ok());
  EXPECT_GE(metrics_.server_shed.value(), 1);
  EXPECT_EQ(metrics_.server_accepted.value(), 2);
}

// One write-skew interleaving, expressed against any transaction handle.
// T1 and T2 each check "x <= 50 and y <= 50" as their input condition, then
// blindly bump their own entity to 80; both begin before either commits.
// Under a serializability-based scheduler one of them must be rejected; the
// paper's point is that with these specifications both commits are correct,
// and the CEP accepts exactly that.
struct SkewVerdict {
  bool t1_committed = false;
  bool t2_committed = false;
  ValueVector final_state;

  bool operator==(const SkewVerdict& other) const {
    return t1_committed == other.t1_committed &&
           t2_committed == other.t2_committed &&
           final_state == other.final_state;
  }
};

SkewVerdict RunWriteSkewInProcess(Engine* engine) {
  SkewVerdict verdict;
  std::unique_ptr<Session> t1 = engine->OpenSession();
  std::unique_ptr<Session> t2 = engine->OpenSession();
  engine::TxSpec spec1{"skew1", BothBelow50(), Predicate::True(), {}};
  engine::TxSpec spec2{"skew2", BothBelow50(), Predicate::True(), {}};
  bool b1 = t1->Begin(spec1).ok();
  bool b2 = t2->Begin(spec2).ok();
  verdict.t1_committed =
      b1 && t1->Write(0, 80).ok() && t1->Commit().ok();
  verdict.t2_committed =
      b2 && t2->Write(1, 80).ok() && t2->Commit().ok();
  verdict.final_state = engine->store()->LatestCommittedSnapshot();
  return verdict;
}

SkewVerdict RunWriteSkewOverTcp(Engine* engine, Client* t1, Client* t2) {
  SkewVerdict verdict;
  bool b1 = t1->Begin("skew1", {}, BothBelow50(), Predicate::True()).ok();
  bool b2 = t2->Begin("skew2", {}, BothBelow50(), Predicate::True()).ok();
  verdict.t1_committed =
      b1 && t1->Write(0, 80).ok() && t1->Commit().ok();
  verdict.t2_committed =
      b2 && t2->Write(1, 80).ok() && t2->Commit().ok();
  verdict.final_state = engine->store()->LatestCommittedSnapshot();
  return verdict;
}

TEST_F(ServerTest, TwoSessionWriteSkewMatchesInProcessVerdict) {
  // In-process baseline on its own engine.
  Engine baseline(BaseOptions());
  SkewVerdict in_process = RunWriteSkewInProcess(&baseline);
  baseline.Shutdown();

  // The same interleaving through two TCP sessions.
  StartServer(BaseOptions(&metrics_));
  Client t1, t2;
  ASSERT_TRUE(Connect(&t1).ok());
  ASSERT_TRUE(Connect(&t2).ok());
  SkewVerdict wired = RunWriteSkewOverTcp(engine_.get(), &t1, &t2);

  // The CEP verdict is transport-independent...
  EXPECT_EQ(wired, in_process);
  // ...and it is the non-serializable acceptance the paper argues for:
  // both transactions commit even though no serial order admits the second
  // one's input condition after the first one's write.
  EXPECT_TRUE(wired.t1_committed);
  EXPECT_TRUE(wired.t2_committed);
  EXPECT_EQ(wired.final_state, (ValueVector{80, 80}));
}

TEST_F(ServerTest, UnsatisfiableBeginVerdictMatchesInProcess) {
  // With bounded waiting, a begin whose input can never be satisfied
  // resolves to kAborted — identically in-process and over the wire.
  EngineOptions options = BaseOptions();
  options.max_blocked_us = 10'000;

  Engine baseline(options);
  std::unique_ptr<Session> session = baseline.OpenSession();
  engine::TxSpec spec{"impossible", Range(0, 90, 100), Predicate::True(), {}};
  Status in_process = session->Begin(spec);
  baseline.Shutdown();

  options.protocol.metrics = &metrics_;
  StartServer(options);
  Client client;
  ASSERT_TRUE(Connect(&client).ok());
  Status wired =
      client.Begin("impossible", {}, Range(0, 90, 100), Predicate::True())
          .status();
  EXPECT_EQ(wired.code(), in_process.code());
  EXPECT_EQ(wired.code(), StatusCode::kAborted);
}

TEST_F(ServerTest, EngineFirstTeardownWithLiveClients) {
  StartServer(BaseOptions(&metrics_));
  Client active, idle;
  ASSERT_TRUE(Connect(&active).ok());
  ASSERT_TRUE(Connect(&idle).ok());
  ASSERT_TRUE(
      active.Begin("open", {}, Predicate::True(), Predicate::True()).ok());
  ASSERT_TRUE(active.Write(0, 99).ok());

  // Engine first (wakes anything parked), then the server.
  engine_->Shutdown();
  server_->Stop();
  EXPECT_EQ(server_->active_connections(), 0);

  // The in-flight transaction never committed; the store is clean.
  EXPECT_EQ(engine_->store()->LatestCommittedSnapshot(), (ValueVector{50, 50}));

  // Clients observe a dead connection, not a hang: either an error
  // response raced out or the socket is simply closed.
  StatusOr<Value> pong = active.Ping(1);
  EXPECT_FALSE(pong.ok());

  // Both Stop and Shutdown stay idempotent after the fact.
  server_->Stop();
  engine_->Shutdown();
}

TEST_F(ServerTest, ManyConcurrentSessionsMakeProgress) {
  StartServer(BaseOptions(&metrics_), /*num_workers=*/4);
  constexpr int kClients = 8;
  constexpr int kRounds = 16;
  std::vector<std::thread> threads;
  std::atomic<int> commits{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      Client client;
      if (!client.Connect("127.0.0.1", server_->port()).ok()) return;
      for (int round = 0; round < kRounds; ++round) {
        StatusOr<int> tx =
            client.Begin("load", {}, Predicate::True(), Predicate::True());
        if (!tx.ok()) continue;  // Shed or aborted: try the next round.
        EntityId e = static_cast<EntityId>(i % 2);
        if (!client.Write(e, i * 100 + round).ok()) continue;
        if (client.Commit().ok()) commits.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Writers never block each other in this protocol; with True predicates
  // every attempt should land.
  EXPECT_EQ(commits.load(), kClients * kRounds);
  EXPECT_GE(metrics_.server_accepted.value(), commits.load());
  EXPECT_EQ(engine_->inflight(), 0);
}

}  // namespace
}  // namespace nonserial
