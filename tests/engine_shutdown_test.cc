// Shutdown-ordering audit for the engine facade: server-initiated teardown
// must be safe at any moment — with sessions parked mid-protocol, with the
// WAL group-commit writer holding a staged batch, and when several owners
// (scope guard, explicit Shutdown, destructor) race for the same teardown.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "engine/engine.h"
#include "storage/wal.h"

namespace nonserial {
namespace {

engine::TxSpec Spec(const std::string& name,
                    Predicate input = Predicate::True()) {
  engine::TxSpec spec;
  spec.name = name;
  spec.input = std::move(input);
  return spec;
}

EngineOptions GroupCommitOptionsFor(WriteAheadLog* wal,
                                    ProtocolMetrics* metrics = nullptr) {
  EngineOptions options;
  options.initial = {50, 50};
  options.protocol.metrics = metrics;
  options.wal = wal;
  options.wal_group_commit = true;
  options.poll_us = 100;
  options.max_poll_us = 1'000;
  return options;
}

TEST(EngineShutdownTest, ShutdownIsIdempotentAcrossOwners) {
  WriteAheadLog wal({50, 50});
  Engine engine(GroupCommitOptionsFor(&wal));
  {
    ScopedEngineShutdown guard(&engine);
    engine.Shutdown();
    engine.Shutdown();
  }
  // Destructor is yet another owner; none of the four teardowns may
  // double-join the writer thread.
  engine.Shutdown();
}

TEST(EngineShutdownTest, ConcurrentShutdownOwnersAreSerialized) {
  WriteAheadLog wal({50, 50});
  Engine engine(GroupCommitOptionsFor(&wal));
  std::vector<std::thread> owners;
  for (int i = 0; i < 4; ++i) {
    owners.emplace_back([&engine] { engine.Shutdown(); });
  }
  for (std::thread& t : owners) t.join();
  EXPECT_TRUE(engine.shutting_down());
}

TEST(EngineShutdownTest, BeginRefusedAfterShutdown) {
  Engine engine([] {
    EngineOptions o;
    o.initial = {50, 50};
    return o;
  }());
  std::unique_ptr<Session> session = engine.OpenSession();
  engine.Shutdown();
  EXPECT_EQ(session->Begin(Spec("late")).code(), StatusCode::kAborted);
  EXPECT_FALSE(session->in_transaction());
}

TEST(EngineShutdownTest, ShutdownWakesParkedSession) {
  EngineOptions options;
  options.initial = {50, 50};
  options.poll_us = 1'000;
  options.max_poll_us = 500'000;  // Long polls: the wake must come from
                                  // shutdown, not from poll expiry.
  Engine engine(options);
  std::unique_ptr<Session> session = engine.OpenSession();
  std::atomic<bool> parked{false};
  Status begin_status = Status::OK();
  std::thread blocked([&] {
    parked.store(true);
    // Unsatisfiable input; nobody will ever produce x >= 90.
    begin_status = session->Begin(Spec("reader", Range(0, 90, 100)));
  });
  while (!parked.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  engine.Shutdown();
  blocked.join();  // Hangs here if shutdown fails to wake the park.
  EXPECT_EQ(begin_status.code(), StatusCode::kAborted);
  EXPECT_EQ(engine.inflight(), 0);
}

TEST(EngineShutdownTest, MidBatchTeardownDrainsHeldFlushes) {
  ProtocolMetrics metrics;
  WriteAheadLog wal({50, 50});
  Engine engine(GroupCommitOptionsFor(&wal, &metrics));
  // Stall the flush pipeline so commits park in WaitDurable with their
  // batch staged but not yet on the medium — the exact mid-batch state a
  // server teardown can interrupt.
  wal.HoldFlushesForTest(true);
  std::unique_ptr<Session> session = engine.OpenSession();
  ASSERT_TRUE(session->Begin(Spec("w")).ok());
  ASSERT_TRUE(session->Write(0, 77).ok());
  Status commit_status = Status::OK();
  std::atomic<bool> committing{false};
  std::thread committer([&] {
    committing.store(true);
    commit_status = session->Commit();
  });
  while (!committing.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(wal.PipelineDepth(), 0u);  // The batch is really staged.
  {
    // Server-initiated teardown while the batch is held: the stop request
    // makes the writer drain every staged batch (DisableGroupCommit), so
    // the parked commit's ack resolves instead of hanging forever.
    ScopedEngineShutdown guard(&engine);
  }
  committer.join();
  // The drain reached the medium before the writer exited: the commit is
  // durable and its ack succeeded.
  EXPECT_TRUE(commit_status.ok()) << commit_status.ToString();
  EXPECT_EQ(wal.PipelineDepth(), 0u);
  RecoveryResult rec = wal.Recover(RecoveryOptions{});
  ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
  EXPECT_EQ(rec.store->LatestCommittedSnapshot(), (ValueVector{77, 50}));
  EXPECT_EQ(metrics.group_commit_failed_acks.value(), 0);
}

TEST(EngineShutdownTest, TeardownUnderCommitStormLosesNoDurableCommit) {
  // N sessions commit concurrently while the main thread tears the engine
  // down; every commit that returned OK must be reproducible from the log.
  ProtocolMetrics metrics;
  WriteAheadLog wal(ValueVector(4, 0), /*segment_bytes=*/1 << 16);
  EngineOptions options;
  options.initial = ValueVector(4, 0);
  options.protocol.metrics = &metrics;
  options.wal = &wal;
  options.wal_group_commit = true;
  options.poll_us = 100;
  options.max_poll_us = 1'000;
  Engine engine(options);

  constexpr int kSessions = 4;
  std::vector<std::thread> workers;
  std::vector<std::vector<std::pair<EntityId, Value>>> durable(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    workers.emplace_back([&engine, &durable, i] {
      std::unique_ptr<Session> session = engine.OpenSession();
      for (Value round = 1; round <= 64; ++round) {
        if (!session->Begin(Spec("storm")).ok()) break;
        EntityId e = static_cast<EntityId>(i);
        Value v = i * 1'000 + round;
        if (!session->Write(e, v).ok()) break;
        if (session->Commit().ok()) {
          durable[i].push_back({e, v});
        } else {
          break;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  engine.Shutdown();  // Mid-storm: later begins are refused, parked waits
                      // abort, already-acked commits stay durable.
  for (std::thread& t : workers) t.join();

  RecoveryResult rec = wal.Recover(RecoveryOptions{});
  ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
  ValueVector recovered = rec.store->LatestCommittedSnapshot();
  for (int i = 0; i < kSessions; ++i) {
    if (durable[i].empty()) continue;
    // Each session wrote strictly increasing values to its own entity, so
    // the recovered state must carry its last acked commit.
    EXPECT_EQ(recovered[durable[i].back().first], durable[i].back().second)
        << "session " << i << " lost an acked commit";
  }
}

TEST(EngineShutdownTest, SessionDestructorRollbackRacesShutdown) {
  // The gap this closes: a Session destroyed with a transaction still open
  // runs AbortActive (rollback, WAL kRollback record, admission release,
  // retirement offer) on its own thread, and nothing stops the server
  // from calling Engine::Shutdown at that exact moment. Neither side may
  // race the other's state — TSan is the judge here; functionally, every
  // iteration must leave zero in-flight admissions.
  for (int round = 0; round < 8; ++round) {
    ProtocolMetrics metrics;
    WriteAheadLog wal({50, 50});
    EngineOptions options = GroupCommitOptionsFor(&wal, &metrics);
    options.retire_terminated_tx = true;  // Dtor path also offers RetireTx.
    Engine engine(options);

    constexpr int kSessions = 4;
    std::atomic<int> begun{0};
    std::vector<std::thread> workers;
    for (int i = 0; i < kSessions; ++i) {
      workers.emplace_back([&engine, &begun, i] {
        std::unique_ptr<Session> session = engine.OpenSession();
        Status s = session->Begin(Spec("racer"));
        begun.fetch_add(1);
        if (s.ok()) (void)session->Write(static_cast<EntityId>(i % 2), 40 + i);
        // Destructor rollback fires here, concurrently with Shutdown.
      });
    }
    while (begun.load() < kSessions) std::this_thread::yield();
    engine.Shutdown();
    for (std::thread& t : workers) t.join();
    EXPECT_EQ(engine.inflight(), 0);
  }
}

}  // namespace
}  // namespace nonserial
