// Compaction-equivalence fuzz: a checkpoint must be invisible to recovery.
// Each seed feeds one random raw record sequence — several writers sharing
// entities, with payloads, commit tokens, commits, rollbacks and crash
// markers — into two logs. One log is compacted at random points (a live
// Checkpoint(), or a crash marker followed by CompactTo(Recover()), with
// records landing between the scan and the compaction); its twin never is.
// Recovery of the two must agree on everything the verifier and the store
// see: committed ids in order, tokens, payloads, the committed versions of
// every chain in chain order, and the final snapshot. Runs on sync and on
// group-commit logs.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "fuzz_support.h"
#include "storage/version_store.h"
#include "storage/wal.h"

namespace nonserial {
namespace {

constexpr int kWriters = 4;
constexpr int kEntities = 3;

/// Every log the fuzz writes to: the compacted one and its twin.
struct Logs {
  explicit Logs(bool group) : compacted(Initial()), twin(Initial()) {
    if (group) {
      compacted.EnableGroupCommit();
      twin.EnableGroupCommit();
    }
  }
  ~Logs() {
    compacted.DisableGroupCommit();
    twin.DisableGroupCommit();
  }

  static ValueVector Initial() { return ValueVector(kEntities, 0); }

  /// Applies `fn` to both logs, so they receive the same record sequence.
  template <typename Fn>
  void Both(Fn&& fn) {
    fn(compacted);
    fn(twin);
  }

  /// Makes both durable images complete: a crash marker discards staged
  /// frames, and that loss would differ between the two logs.
  void Flush() {
    compacted.Flush();
    twin.Flush();
  }

  WriteAheadLog compacted;
  WriteAheadLog twin;
};

/// One random record for a random writer, logged to both logs.
void LogRandomRecord(Rng* rng, Logs* logs) {
  const int writer = static_cast<int>(rng->Uniform(kWriters));
  const uint32_t pick = rng->Uniform(100);
  if (pick < 40) {
    const auto entity = static_cast<EntityId>(rng->Uniform(kEntities));
    const Value value = rng->UniformInt(1, 99);
    logs->Both(
        [&](WriteAheadLog& wal) { wal.LogAppend(entity, value, writer); });
  } else if (pick < 52) {
    const auto entity = static_cast<EntityId>(rng->Uniform(kEntities));
    std::vector<std::pair<EntityId, Value>> writes = {
        {entity, rng->UniformInt(1, 99)}};
    const std::string name = "t" + std::to_string(rng->Uniform(1000));
    ValueVector input(kEntities, rng->UniformInt(0, 9));
    std::vector<int> feeders = {static_cast<int>(rng->Uniform(kWriters))};
    logs->Both([&](WriteAheadLog& wal) {
      wal.LogTxPayload(writer, name, input, feeders, writes);
    });
  } else if (pick < 60) {
    const uint64_t token = rng->Next64() | 1;
    logs->Both([&](WriteAheadLog& wal) { wal.LogCommitToken(writer, token); });
  } else if (pick < 82) {
    logs->Both([&](WriteAheadLog& wal) { wal.LogCommit(writer); });
  } else if (pick < 94) {
    logs->Both([&](WriteAheadLog& wal) { wal.LogRollback(writer); });
  } else {
    logs->Flush();
    logs->Both([](WriteAheadLog& wal) { wal.LogCrashMarker(); });
  }
}

/// The committed versions of `e`, (writer, value) in chain order.
std::vector<std::pair<int, Value>> CommittedChain(const VersionStore& store,
                                                  EntityId e) {
  std::vector<std::pair<int, Value>> chain;
  for (const Version& v : store.ChainSnapshot(e)) {
    if (v.committed && !v.dead) chain.emplace_back(v.writer, v.value);
  }
  return chain;
}

void ExpectSameRecovery(const RecoveryResult& got, const RecoveryResult& want) {
  ASSERT_TRUE(got.status.ok()) << got.status.ToString();
  ASSERT_TRUE(want.status.ok()) << want.status.ToString();
  ASSERT_EQ(got.committed.size(), want.committed.size());
  for (size_t i = 0; i < want.committed.size(); ++i) {
    const RecoveredTx& g = got.committed[i];
    const RecoveredTx& w = want.committed[i];
    EXPECT_EQ(g.tx, w.tx) << "commit " << i;
    EXPECT_EQ(g.commit_token, w.commit_token) << "commit " << i;
    EXPECT_EQ(g.name, w.name) << "commit " << i;
    EXPECT_EQ(g.input_state, w.input_state) << "commit " << i;
    EXPECT_EQ(g.feeders, w.feeders) << "commit " << i;
    EXPECT_EQ(g.writes, w.writes) << "commit " << i;
  }
  for (EntityId e = 0; e < kEntities; ++e) {
    EXPECT_EQ(CommittedChain(*got.store, e), CommittedChain(*want.store, e))
        << "entity " << e;
  }
  EXPECT_EQ(got.store->LatestCommittedSnapshot(),
            want.store->LatestCommittedSnapshot());
}

void RunSeed(uint64_t seed, bool group) {
  Rng rng(seed);
  Logs logs(group);
  const int steps = static_cast<int>(rng.UniformInt(40, 160));
  for (int step = 0; step < steps; ++step) {
    const uint32_t pick = rng.Uniform(100);
    if (pick < 8) {
      // Under group commit the checkpoint sees only the flushed prefix;
      // frames still staged land behind it, as in a live system.
      Status status = logs.compacted.Checkpoint();
      ASSERT_TRUE(status.ok()) << status.ToString();
    } else if (pick < 12) {
      logs.Flush();
      logs.Both([](WriteAheadLog& wal) { wal.LogCrashMarker(); });
      RecoveryResult scan = logs.compacted.Recover();
      // Records logged between the scan and the compaction are its suffix.
      const int suffix = static_cast<int>(rng.Uniform(4));
      for (int i = 0; i < suffix; ++i) LogRandomRecord(&rng, &logs);
      logs.Flush();
      logs.compacted.CompactTo(scan);
    } else {
      LogRandomRecord(&rng, &logs);
    }
  }
  logs.Flush();
  ExpectSameRecovery(logs.compacted.Recover(), logs.twin.Recover());
}

TEST(WalCompactionFuzzTest, CompactedLogRecoversLikeItsUncompactedTwin) {
  constexpr int kSeeds = 200;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    if (!fuzz::ShouldRunSeed(seed)) continue;
    for (bool group : {false, true}) {
      SCOPED_TRACE(std::string(group ? "group-commit" : "sync") + " log; " +
                   fuzz::ReproduceHint(seed));
      RunSeed(seed, group);
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace nonserial
