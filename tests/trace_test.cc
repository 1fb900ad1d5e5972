#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "protocol/cep.h"
#include "protocol/trace.h"

namespace nonserial {
namespace {

TxProfile Profile(const std::string& name, Predicate input,
                  std::vector<int> preds = {}) {
  TxProfile profile;
  profile.name = name;
  profile.input = std::move(input);
  profile.predecessors = std::move(preds);
  return profile;
}

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() : store_({50}), cep_(&store_) {
    cep_.SetObserver(&trace_);
  }

  VersionStore store_;
  CorrectExecutionProtocol cep_;
  TraceRecorder trace_;
};

TEST_F(TraceTest, LifecycleEventsInOrder) {
  cep_.Register(0, Profile("t0", Range(0, 0, 100)));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(cep_.Read(0, 0, &v), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 60), ReqResult::kGranted);
  cep_.WriteDone(0, 0);
  ASSERT_EQ(cep_.Commit(0), ReqResult::kGranted);

  ASSERT_EQ(trace_.events().size(), 4u);
  EXPECT_EQ(trace_.events()[0].kind, TraceEvent::Kind::kValidated);
  EXPECT_EQ(trace_.events()[1].kind, TraceEvent::Kind::kRead);
  EXPECT_EQ(trace_.events()[1].value, 50);
  EXPECT_EQ(trace_.events()[2].kind, TraceEvent::Kind::kWrite);
  EXPECT_EQ(trace_.events()[2].value, 60);
  EXPECT_EQ(trace_.events()[3].kind, TraceEvent::Kind::kCommitted);
}

TEST_F(TraceTest, ReassignEventCarriesPeer) {
  cep_.Register(0, Profile("pred", Predicate::True()));
  cep_.Register(1, Profile("succ", Range(0, 0, 100), {0}));
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 70), ReqResult::kGranted);
  cep_.WriteDone(0, 0);

  std::vector<TraceEvent> reassigns =
      trace_.OfKind(TraceEvent::Kind::kReAssign);
  ASSERT_EQ(reassigns.size(), 1u);
  EXPECT_EQ(reassigns[0].tx, 1);
  EXPECT_EQ(reassigns[0].other, 0);
  EXPECT_EQ(reassigns[0].entity, 0);
  EXPECT_EQ(trace_.OfKind(TraceEvent::Kind::kReEval).size(), 1u);
}

TEST_F(TraceTest, PoAbortEventEmitted) {
  cep_.Register(0, Profile("pred", Predicate::True()));
  cep_.Register(1, Profile("succ", Range(0, 0, 100), {0}));
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  Value v = 0;
  ASSERT_EQ(cep_.Read(1, 0, &v), ReqResult::kGranted);
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Write(0, 0, 70), ReqResult::kGranted);

  std::vector<TraceEvent> po = trace_.OfKind(TraceEvent::Kind::kPoAbort);
  ASSERT_EQ(po.size(), 1u);
  EXPECT_EQ(po[0].tx, 1);
  (void)cep_.TakeForcedAborts();
}

TEST_F(TraceTest, CommitWaitNamesTarget) {
  cep_.Register(0, Profile("a", Predicate::True()));
  cep_.Register(1, Profile("b", Predicate::True(), {0}));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_EQ(cep_.Begin(1), ReqResult::kGranted);
  ASSERT_EQ(cep_.Commit(1), ReqResult::kBlocked);
  std::vector<TraceEvent> waits = trace_.OfKind(TraceEvent::Kind::kCommitWait);
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_EQ(waits[0].tx, 1);
  EXPECT_EQ(waits[0].other, 0);
}

TEST_F(TraceTest, ValidationWaitOnUnsatisfiable) {
  cep_.Register(0, Profile("picky", Range(0, 90, 100)));
  EXPECT_EQ(cep_.Begin(0), ReqResult::kBlocked);
  EXPECT_EQ(trace_.OfKind(TraceEvent::Kind::kValidationWait).size(), 1u);
}

TEST_F(TraceTest, DetachStopsEvents) {
  cep_.Register(0, Profile("t0", Range(0, 0, 100)));
  cep_.SetObserver(nullptr);
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  EXPECT_TRUE(trace_.events().empty());
}

TEST_F(TraceTest, RecorderIsThreadSafe) {
  // The locking contract on TraceSink: OnEvent may be called from many
  // engine threads at once. Hammer the recorder directly and check nothing
  // is lost or torn.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, t] {
      for (int i = 0; i < kPerThread; ++i) {
        TraceEvent event;
        event.kind = TraceEvent::Kind::kRead;
        event.protocol = "CEP";
        event.tx = t;
        event.value = i;
        trace_.OnEvent(event);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(trace_.size(), static_cast<size_t>(kThreads * kPerThread));
  auto tally = trace_.Tally();
  EXPECT_EQ(tally["CEP"]["read"], kThreads * kPerThread);
}

TEST_F(TraceTest, RecorderClearAndToString) {
  cep_.Register(0, Profile("t0", Range(0, 0, 100)));
  ASSERT_EQ(cep_.Begin(0), ReqResult::kGranted);
  ASSERT_FALSE(trace_.events().empty());
  std::string text = trace_.events()[0].ToString();
  EXPECT_NE(text.find("validated"), std::string::npos);
  EXPECT_NE(text.find("tx=0"), std::string::npos);
  trace_.Clear();
  EXPECT_TRUE(trace_.events().empty());
}

}  // namespace
}  // namespace nonserial
