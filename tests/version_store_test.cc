#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "storage/version_store.h"

namespace nonserial {
namespace {

TEST(VersionStoreTest, InitialVersionsCommitted) {
  VersionStore store({10, 20});
  EXPECT_EQ(store.num_entities(), 2);
  ASSERT_EQ(store.ChainSize(0), 1);
  EXPECT_TRUE(store.VersionAt(0, 0).committed);
  EXPECT_EQ(store.VersionAt(0, 0).writer, kInitialWriter);
  EXPECT_EQ(store.Read(VersionRef{0, 0}), 10);
  EXPECT_EQ(store.Read(VersionRef{1, 0}), 20);
}

TEST(VersionStoreTest, AppendCreatesUncommittedVersion) {
  VersionStore store({10});
  int idx = store.Append(0, 11, /*writer=*/3);
  EXPECT_EQ(idx, 1);
  EXPECT_FALSE(store.VersionAt(0, 1).committed);
  EXPECT_EQ(store.LatestLiveIndex(0), 1);
  EXPECT_EQ(store.LatestCommittedIndex(0), 0);
}

TEST(VersionStoreTest, CommitWriterFlipsAllItsVersions) {
  VersionStore store({10, 20});
  store.Append(0, 11, 3);
  store.Append(1, 21, 3);
  store.Append(0, 12, 4);
  store.CommitWriter(3);
  EXPECT_TRUE(store.VersionAt(0, 1).committed);
  EXPECT_TRUE(store.VersionAt(1, 1).committed);
  EXPECT_FALSE(store.VersionAt(0, 2).committed);
  EXPECT_EQ(store.LatestCommittedIndex(0), 1);
}

TEST(VersionStoreTest, RollbackMarksDeadAndPreservesIndices) {
  VersionStore store({10});
  int a = store.Append(0, 11, 3);
  int b = store.Append(0, 12, 4);
  store.RollbackWriter(3);
  EXPECT_TRUE(store.VersionAt(0, a).dead);
  EXPECT_FALSE(store.VersionAt(0, b).dead);
  EXPECT_EQ(store.LatestLiveIndex(0), b);
  // References to the dead version still resolve (never dangles).
  EXPECT_EQ(store.Read(VersionRef{0, a}), 11);
}

TEST(VersionStoreTest, RollbackDoesNotKillCommittedVersions) {
  VersionStore store({10});
  store.Append(0, 11, 3);
  store.CommitWriter(3);
  store.RollbackWriter(3);
  EXPECT_FALSE(store.VersionAt(0, 1).dead);
}

// Regression: when every version except the initial one is dead, the
// latest-live and latest-committed walks must fall back to version 0 — the
// initial version is committed and never rolled back, so the chain can
// never be liveness-empty.
TEST(VersionStoreTest, AllVersionsDeadExceptInitial) {
  VersionStore store({10});
  store.Append(0, 11, 3);
  store.Append(0, 12, 3);
  store.Append(0, 13, 4);
  store.RollbackWriter(3);
  store.RollbackWriter(4);
  EXPECT_EQ(store.LatestLiveIndex(0), 0);
  EXPECT_EQ(store.LatestCommittedIndex(0), 0);
  EXPECT_EQ(store.LatestCommittedSnapshot(), (ValueVector{10}));
  EXPECT_FALSE(store.LatestIndexBy(0, 3).has_value());
  EXPECT_EQ(store.TotalLiveVersions(), 1);
}

// Regression: CommitWriter after a partial rollback (same runtime id
// restarted) must commit only the surviving attempt's versions, never
// resurrect the dead ones.
TEST(VersionStoreTest, CommitWriterSkipsRolledBackVersions) {
  VersionStore store({10});
  store.Append(0, 11, 3);   // First attempt.
  store.RollbackWriter(3);  // Aborted.
  int retry = store.Append(0, 12, 3);  // Second attempt.
  store.CommitWriter(3);
  EXPECT_TRUE(store.VersionAt(0, 1).dead);
  EXPECT_FALSE(store.VersionAt(0, 1).committed);
  EXPECT_TRUE(store.VersionAt(0, retry).committed);
  EXPECT_EQ(store.LatestCommittedIndex(0), retry);
  auto latest = store.LatestIndexBy(0, 3);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(*latest, retry);
}

TEST(VersionStoreTest, LatestIndexByWriter) {
  VersionStore store({10});
  store.Append(0, 11, 3);
  store.Append(0, 12, 3);
  store.Append(0, 13, 4);
  auto idx = store.LatestIndexBy(0, 3);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(store.Read(VersionRef{0, *idx}), 12);
  EXPECT_FALSE(store.LatestIndexBy(0, 99).has_value());
  // Rolled-back versions are invisible.
  store.RollbackWriter(3);
  EXPECT_FALSE(store.LatestIndexBy(0, 3).has_value());
}

TEST(VersionStoreTest, LatestCommittedSnapshot) {
  VersionStore store({10, 20});
  store.Append(0, 11, 3);
  store.Append(1, 21, 4);
  store.CommitWriter(3);
  EXPECT_EQ(store.LatestCommittedSnapshot(), (ValueVector{11, 20}));
  store.CommitWriter(4);
  EXPECT_EQ(store.LatestCommittedSnapshot(), (ValueVector{11, 21}));
}

TEST(VersionStoreTest, ChainSnapshotCopiesTheChain) {
  VersionStore store({10});
  store.Append(0, 11, 3);
  std::vector<Version> snapshot = store.ChainSnapshot(0);
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].value, 10);
  EXPECT_EQ(snapshot[1].value, 11);
  // A later append does not grow the copy.
  store.Append(0, 12, 4);
  EXPECT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(store.ChainSize(0), 3);
}

TEST(VersionStoreTest, AsDatabaseStateContainsAllCommittedValues) {
  VersionStore store({10});
  store.Append(0, 11, 3);
  store.CommitWriter(3);
  DatabaseState db = store.AsDatabaseState();
  EXPECT_TRUE(db.IsVersionState({10}));
  EXPECT_TRUE(db.IsVersionState({11}));
  EXPECT_FALSE(db.IsVersionState({12}));
}

TEST(VersionStoreGcTest, CollectsObsoleteCommittedVersions) {
  VersionStore store({10});
  store.Append(0, 11, 3);
  store.Append(0, 12, 4);
  store.CommitWriter(3);
  store.CommitWriter(4);
  // Initial (10) and 11 are obsolete; 12 is the latest committed.
  EXPECT_EQ(store.CollectObsolete({}), 2);
  EXPECT_TRUE(store.VersionAt(0, 0).dead);
  EXPECT_TRUE(store.VersionAt(0, 1).dead);
  EXPECT_FALSE(store.VersionAt(0, 2).dead);
  EXPECT_EQ(store.LatestCommittedIndex(0), 2);
  // Idempotent.
  EXPECT_EQ(store.CollectObsolete({}), 0);
}

TEST(VersionStoreGcTest, PinnedVersionsSurvive) {
  VersionStore store({10});
  store.Append(0, 11, 3);
  store.Append(0, 12, 4);
  store.CommitWriter(3);
  store.CommitWriter(4);
  EXPECT_EQ(store.CollectObsolete({VersionRef{0, 1}}), 1);  // Only initial.
  EXPECT_FALSE(store.VersionAt(0, 1).dead);
}

TEST(VersionStoreGcTest, UncommittedVersionsNeverCollected) {
  VersionStore store({10});
  store.Append(0, 11, 3);  // Uncommitted.
  EXPECT_EQ(store.CollectObsolete({}), 0);
  EXPECT_FALSE(store.VersionAt(0, 1).dead);
}

TEST(VersionStoreGcTest, CollectedReferencesStillResolve) {
  VersionStore store({10});
  store.Append(0, 11, 3);
  store.CommitWriter(3);
  ASSERT_EQ(store.CollectObsolete({}), 1);
  EXPECT_EQ(store.Read(VersionRef{0, 0}), 10);  // Dead but addressable.
}

TEST(VersionStoreTest, TotalLiveVersions) {
  VersionStore store({10, 20});
  EXPECT_EQ(store.TotalLiveVersions(), 2);
  store.Append(0, 11, 3);
  EXPECT_EQ(store.TotalLiveVersions(), 3);
  store.RollbackWriter(3);
  EXPECT_EQ(store.TotalLiveVersions(), 2);
}

TEST(VersionStoreTest, ForEachVersionVisitsInIndexOrder) {
  VersionStore store({10});
  store.Append(0, 11, 3);
  store.Append(0, 12, 4);
  store.RollbackWriter(4);
  std::vector<std::pair<Value, int>> seen;
  store.ForEachVersion(0, [&](const Version& v, int index) {
    seen.emplace_back(v.value, index);
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<Value, int>{10, 0}));
  EXPECT_EQ(seen[1], (std::pair<Value, int>{11, 1}));
  EXPECT_EQ(seen[2], (std::pair<Value, int>{12, 2}));
  store.ForEachVersion(0, [&](const Version& v, int index) {
    EXPECT_EQ(v.dead, index == 2);
  });
}

// Chain growth: appending many versions (several reallocations of the
// chain's storage) must keep every earlier index addressable.
TEST(VersionStoreTest, AppendsKeepIndicesStable) {
  VersionStore store({10});
  constexpr int kAppends = 100;
  for (int i = 0; i < kAppends; ++i) {
    EXPECT_EQ(store.Append(0, 100 + i, /*writer=*/3), i + 1);
  }
  EXPECT_EQ(store.ChainSize(0), kAppends + 1);
  for (int i = 0; i < kAppends; ++i) {
    EXPECT_EQ(store.Read(VersionRef{0, i + 1}), 100 + i);
  }
}

// The consistent-cut contract of AsDatabaseState and LatestCommittedSnapshot:
// a CommitWriter that flips versions of several entities is observed either
// fully or not at all. The committer writes round k to BOTH entities and
// commits; a state where entity 0 knows round k but entity 1 does not (or
// vice versa) is a mixed cut that no serial prefix produced. (Run under
// TSan via scripts/ci.sh.)
TEST(VersionStoreConcurrencyTest, AsDatabaseStateIsACoherentCut) {
  constexpr int kRounds = 300;
  VersionStore store({0, 0});
  std::thread committer([&store] {
    for (int k = 1; k <= kRounds; ++k) {
      store.Append(0, k, /*writer=*/k);
      store.Append(1, k, /*writer=*/k);
      store.CommitWriter(k);
    }
  });
  int64_t checked = 0;
  for (int pass = 0; pass < 200; ++pass) {
    DatabaseState db = store.AsDatabaseState();
    std::vector<Value> c0 = db.CandidateValues(0);
    std::vector<Value> c1 = db.CandidateValues(1);
    // Committed rounds accumulate, so the candidate sets are {0..k} for the
    // same k on both entities iff the cut is coherent.
    ASSERT_EQ(c0.size(), c1.size())
        << "mixed cut: entity 0 has " << c0.size() << " committed values, "
        << "entity 1 has " << c1.size();
    ValueVector latest = store.LatestCommittedSnapshot();
    ASSERT_EQ(latest[0], latest[1])
        << "mixed snapshot: entity 0 at round " << latest[0]
        << ", entity 1 at round " << latest[1];
    ++checked;
  }
  committer.join();
  EXPECT_EQ(checked, 200);
  // After quiescing, the final state has every round on both entities.
  DatabaseState final_db = store.AsDatabaseState();
  EXPECT_EQ(final_db.CandidateValues(0).size(),
            static_cast<size_t>(kRounds + 1));
  EXPECT_EQ(final_db.CandidateValues(1).size(),
            static_cast<size_t>(kRounds + 1));
}

// Readers racing chain growth: ForEachVersion walkers must always observe
// every version's value at its own index, across arbitrarily many
// reallocations of the chain. (Run under TSan via scripts/ci.sh.)
TEST(VersionStoreConcurrencyTest, ForEachVersionRacesSlabGrowth) {
  constexpr int kAppends = 2000;
  VersionStore store({0});
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&store, &done] {
      while (!done.load(std::memory_order_acquire)) {
        int last_index = -1;
        store.ForEachVersion(0, [&](const Version& v, int index) {
          EXPECT_EQ(index, last_index + 1);
          last_index = index;
          // Identity fields are frozen at publication: version i holds i.
          EXPECT_EQ(v.value, index);
        });
        EXPECT_GE(last_index, 0);  // The initial version is always there.
      }
    });
  }
  for (int i = 1; i <= kAppends; ++i) store.Append(0, i, /*writer=*/7);
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(store.ChainSize(0), kAppends + 1);
}

// Concurrency smoke: writers appending to disjoint-and-shared entities
// while readers snapshot — every version must land exactly once and stay
// addressable. (Run under TSan via scripts/ci.sh.)
TEST(VersionStoreConcurrencyTest, ConcurrentAppendsAndReads) {
  constexpr int kEntities = 8;
  constexpr int kWriters = 4;
  constexpr int kAppendsPerWriter = 200;
  VersionStore store(ValueVector(kEntities, 0));
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, w] {
      for (int i = 0; i < kAppendsPerWriter; ++i) {
        EntityId e = (w + i) % kEntities;
        int idx = store.Append(e, w * 1000 + i, /*writer=*/w);
        EXPECT_EQ(store.VersionAt(e, idx).value, w * 1000 + i);
      }
      store.CommitWriter(w);
    });
  }
  threads.emplace_back([&store] {
    for (int i = 0; i < 200; ++i) {
      for (EntityId e = 0; e < kEntities; ++e) {
        std::vector<Version> chain = store.ChainSnapshot(e);
        EXPECT_GE(static_cast<int>(chain.size()), 1);
        EXPECT_EQ(chain[0].writer, kInitialWriter);
      }
    }
  });
  for (std::thread& t : threads) t.join();
  int64_t total = 0;
  for (EntityId e = 0; e < kEntities; ++e) total += store.ChainSize(e);
  EXPECT_EQ(total, kEntities + kWriters * kAppendsPerWriter);
}

}  // namespace
}  // namespace nonserial
