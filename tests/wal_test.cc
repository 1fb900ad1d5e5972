#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "storage/version_store.h"
#include "storage/wal_format.h"

namespace nonserial {
namespace {

// ---- hand encoders for on-media format tests ------------------------------

void PutU8(uint8_t v, std::string* out) { out->push_back(static_cast<char>(v)); }

void PutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutLenString(const std::string& s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s);
}

/// Frames `payload` under `kind` exactly as the writer does (magic, kind,
/// len, CRC over kind+len+payload) — lets a test fabricate frames in
/// layouts the current writer no longer emits.
std::string FrameBytes(uint8_t kind, const std::string& payload) {
  std::string out;
  PutU32(wal_format::kFrameMagic, &out);
  PutU8(kind, &out);
  PutU32(static_cast<uint32_t>(payload.size()), &out);
  uint8_t prefix[5];
  prefix[0] = kind;
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) prefix[1 + i] = (len >> (8 * i)) & 0xFF;
  uint32_t crc = wal_format::Crc32(prefix, sizeof(prefix));
  crc = wal_format::Crc32(reinterpret_cast<const uint8_t*>(payload.data()),
                          payload.size(), crc);
  PutU32(crc, &out);
  out.append(payload);
  return out;
}

/// A store with an attached log, pre-loaded with a tiny two-writer history:
/// writer 0 commits {e0=10, e1=11}, writer 1 appends e0=20 but has not
/// terminated when the helper returns.
struct LoggedStore {
  LoggedStore() : wal({0, 0, 0}), store(wal.initial()) {
    store.SetWal(&wal);
    store.Append(0, 10, /*writer=*/0);
    store.Append(1, 11, /*writer=*/0);
    wal.LogTxPayload(0, "t0", {0, 0, 0}, {}, {{0, 10}, {1, 11}});
    store.CommitWriter(0);
    store.Append(0, 20, /*writer=*/1);
  }

  WriteAheadLog wal;
  VersionStore store;
};

TEST(WalTest, StoreLogsEveryMutation) {
  LoggedStore s;
  // 3 appends + payload + commit.
  EXPECT_EQ(s.wal.size(), 5u);
  std::vector<WalRecord> records = s.wal.Snapshot();
  EXPECT_EQ(records[0].kind, WalRecord::Kind::kAppend);
  EXPECT_EQ(records[0].entity, 0);
  EXPECT_EQ(records[0].value, 10);
  EXPECT_EQ(records[2].kind, WalRecord::Kind::kTxPayload);
  EXPECT_EQ(records[3].kind, WalRecord::Kind::kCommit);
  EXPECT_EQ(records[4].kind, WalRecord::Kind::kAppend);
  EXPECT_EQ(records[4].writer, 1);
}

TEST(WalTest, RecoverReplaysCommittedAndDiscardsInFlight) {
  LoggedStore s;
  RecoveryResult rec = s.wal.Recover();
  ASSERT_NE(rec.store, nullptr);
  // Writer 0 is durable; writer 1's e0=20 was in flight at the "crash".
  EXPECT_EQ(rec.replayed_appends, 2);
  EXPECT_EQ(rec.discarded_appends, 1);
  ASSERT_EQ(rec.committed.size(), 1u);
  EXPECT_EQ(rec.committed[0].tx, 0);
  EXPECT_EQ(rec.committed[0].name, "t0");
  ValueVector snapshot = rec.store->LatestCommittedSnapshot();
  EXPECT_EQ(snapshot, (ValueVector{10, 11, 0}));
}

TEST(WalTest, RecoverDiscardsRolledBackWriters) {
  WriteAheadLog wal({0});
  VersionStore store(wal.initial());
  store.SetWal(&wal);
  store.Append(0, 7, /*writer=*/0);
  store.RollbackWriter(0);
  RecoveryResult rec = wal.Recover();
  EXPECT_EQ(rec.replayed_appends, 0);
  EXPECT_EQ(rec.discarded_appends, 1);
  EXPECT_TRUE(rec.committed.empty());
  EXPECT_EQ(rec.store->LatestCommittedSnapshot(), (ValueVector{0}));
}

TEST(WalTest, EveryPrefixIsAConsistentCrashImage) {
  LoggedStore s;
  // Extend the history: writer 1 commits too.
  s.wal.LogTxPayload(1, "t1", {10, 11, 0}, {0}, {{0, 20}});
  s.store.CommitWriter(1);
  size_t n = s.wal.size();
  for (size_t prefix = 0; prefix <= n; ++prefix) {
    RecoveryResult rec = s.wal.Recover(prefix);
    // A writer is durable iff its commit record is inside the prefix; its
    // effects are all-or-nothing.
    ValueVector snapshot = rec.store->LatestCommittedSnapshot();
    if (rec.committed.size() == 0) {
      EXPECT_EQ(snapshot, (ValueVector{0, 0, 0})) << "prefix " << prefix;
    } else if (rec.committed.size() == 1) {
      EXPECT_EQ(snapshot, (ValueVector{10, 11, 0})) << "prefix " << prefix;
    } else {
      EXPECT_EQ(snapshot, (ValueVector{20, 11, 0})) << "prefix " << prefix;
    }
  }
  // The full log recovers both writers, in commit order.
  RecoveryResult full = s.wal.Recover();
  ASSERT_EQ(full.committed.size(), 2u);
  EXPECT_EQ(full.committed[0].tx, 0);
  EXPECT_EQ(full.committed[1].tx, 1);
  EXPECT_EQ(full.committed[1].feeders, (std::vector<int>{0}));
}

TEST(WalTest, CrashMarkerKillsPendingAppendsOfReusedWriterIds) {
  WriteAheadLog wal({0});
  {
    VersionStore store(wal.initial());
    store.SetWal(&wal);
    store.Append(0, 5, /*writer=*/0);  // In flight at the crash.
  }
  wal.LogCrashMarker();
  // The same writer id re-runs after restart and commits value 6.
  RecoveryResult rec = wal.Recover();
  rec.store->SetWal(&wal);
  rec.store->Append(0, 6, /*writer=*/0);
  wal.LogTxPayload(0, "t0", {0}, {}, {{0, 6}});
  rec.store->CommitWriter(0);
  // Recovery must not resurrect the pre-crash append: only value 6 is
  // durable, and the chain holds exactly initial + one committed version.
  RecoveryResult after = wal.Recover();
  EXPECT_EQ(after.replayed_appends, 1);
  EXPECT_EQ(after.discarded_appends, 1);
  EXPECT_EQ(after.store->LatestCommittedSnapshot(), (ValueVector{6}));
  EXPECT_EQ(after.store->ChainSize(0), 2);
}

TEST(WalTest, RecoveredChainOrderMatchesLogOrder) {
  WriteAheadLog wal({0});
  VersionStore store(wal.initial());
  store.SetWal(&wal);
  store.Append(0, 1, /*writer=*/0);
  wal.LogTxPayload(0, "a", {0}, {}, {{0, 1}});
  store.CommitWriter(0);
  store.Append(0, 2, /*writer=*/1);
  wal.LogTxPayload(1, "b", {1}, {0}, {{0, 2}});
  store.CommitWriter(1);
  RecoveryResult rec = wal.Recover();
  ASSERT_EQ(rec.store->ChainSize(0), 3);
  EXPECT_EQ(rec.store->VersionAt(0, 1).value, 1);
  EXPECT_EQ(rec.store->VersionAt(0, 1).writer, 0);
  EXPECT_EQ(rec.store->VersionAt(0, 2).value, 2);
  EXPECT_EQ(rec.store->VersionAt(0, 2).writer, 1);
}

TEST(WalTest, CommitWithoutPayloadSynthesizesStoreOnlyRecord) {
  // Store-only users (no protocol engine) never log payloads; recovery
  // still restores their committed versions.
  WriteAheadLog wal({0, 0});
  VersionStore store(wal.initial());
  store.SetWal(&wal);
  store.Append(1, 9, /*writer=*/3);
  store.CommitWriter(3);
  RecoveryResult rec = wal.Recover();
  ASSERT_EQ(rec.committed.size(), 1u);
  EXPECT_EQ(rec.committed[0].tx, 3);
  EXPECT_EQ(rec.committed[0].writes, (std::vector<std::pair<EntityId, Value>>{
                                         {1, 9}}));
  EXPECT_EQ(rec.store->LatestCommittedSnapshot(), (ValueVector{0, 9}));
}

TEST(WalTest, CrashMarkersFenceBothPreCrashEpochsOfAReusedWriterId) {
  // A writer id that was in flight at TWO successive crashes must not
  // resurrect the pending appends of either pre-crash epoch when it
  // finally commits in the third.
  WriteAheadLog wal({0});
  {
    VersionStore store(wal.initial());
    store.SetWal(&wal);
    store.Append(0, 5, /*writer=*/0);  // Epoch 1, in flight at crash 1.
  }
  wal.LogCrashMarker();
  {
    RecoveryResult rec = wal.Recover();
    ASSERT_TRUE(rec.status.ok());
    rec.store->SetWal(&wal);
    rec.store->Append(0, 6, /*writer=*/0);  // Epoch 2, in flight at crash 2.
  }
  wal.LogCrashMarker();
  // Epoch 3: the same writer id commits value 7.
  RecoveryResult rec = wal.Recover();
  ASSERT_TRUE(rec.status.ok());
  rec.store->SetWal(&wal);
  rec.store->Append(0, 7, /*writer=*/0);
  wal.LogTxPayload(0, "t0", {0}, {}, {{0, 7}});
  rec.store->CommitWriter(0);

  RecoveryResult after = wal.Recover();
  EXPECT_EQ(after.replayed_appends, 1);
  EXPECT_EQ(after.discarded_appends, 2);  // One loser per pre-crash epoch.
  EXPECT_EQ(after.store->LatestCommittedSnapshot(), (ValueVector{7}));
  EXPECT_EQ(after.store->ChainSize(0), 2);  // Initial + the one commit.
  ASSERT_EQ(after.committed.size(), 1u);
  EXPECT_EQ(after.committed[0].tx, 0);
}

TEST(WalTest, StatsCountsWithoutDecodingRecords) {
  LoggedStore s;
  WalStats stats = s.wal.stats();
  EXPECT_EQ(stats.records, 5);
  EXPECT_EQ(stats.total_records, 5);
  EXPECT_GT(stats.bytes, 0);
  EXPECT_GE(stats.segments, 1);
  EXPECT_EQ(stats.checkpoints, 0);
  EXPECT_FALSE(stats.media_failed);
  EXPECT_EQ(s.wal.size(), 5u);
}

TEST(WalTest, TailSinceDecodesOnlyTheRequestedSuffix) {
  // Small segments so the tail walk crosses several segment boundaries.
  WriteAheadLog wal({0}, /*segment_bytes=*/64);
  VersionStore store(wal.initial());
  store.SetWal(&wal);
  for (int w = 0; w < 12; ++w) {
    store.Append(0, w + 1, w);
    store.CommitWriter(w);
  }
  EXPECT_GT(wal.stats().segments, 1);
  std::vector<WalRecord> all = wal.Snapshot();
  ASSERT_EQ(all.size(), 24u);  // Append + commit per writer.
  for (size_t from : {size_t{0}, size_t{5}, size_t{11}, size_t{23},
                      size_t{24}}) {
    std::vector<WalRecord> tail = wal.TailSince(from);
    ASSERT_EQ(tail.size(), all.size() - from) << "from " << from;
    for (size_t j = 0; j < tail.size(); ++j) {
      EXPECT_EQ(tail[j].kind, all[from + j].kind) << from << "+" << j;
      EXPECT_EQ(tail[j].writer, all[from + j].writer) << from << "+" << j;
      EXPECT_EQ(tail[j].value, all[from + j].value) << from << "+" << j;
    }
  }
}

TEST(WalTest, SerializedImageRoundTripsThroughFromImage) {
  LoggedStore s;
  std::string image = s.wal.SerializedImage();
  std::unique_ptr<WriteAheadLog> copy =
      WriteAheadLog::FromImage(image, s.wal.initial());
  EXPECT_EQ(copy->size(), s.wal.size());
  RecoveryResult a = s.wal.Recover();
  RecoveryResult b = copy->Recover();
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(b.replayed_appends, a.replayed_appends);
  EXPECT_EQ(b.discarded_appends, a.discarded_appends);
  EXPECT_EQ(b.store->LatestCommittedSnapshot(),
            a.store->LatestCommittedSnapshot());
}

TEST(WalTest, CheckpointCompactsCommittedStateAndCarriesPending) {
  LoggedStore s;  // Writer 0 committed {e0=10, e1=11}; writer 1 in flight.
  Status cp = s.wal.Checkpoint();
  ASSERT_TRUE(cp.ok()) << cp.ToString();
  WalStats stats = s.wal.stats();
  EXPECT_EQ(stats.checkpoints, 1);
  // Only writer 1's in-flight append is carried forward as a record.
  EXPECT_EQ(s.wal.size(), 1u);

  // Recovery through the checkpoint matches pre-checkpoint recovery.
  RecoveryResult rec = s.wal.Recover();
  ASSERT_TRUE(rec.status.ok());
  EXPECT_TRUE(rec.checkpoint_restored);
  ASSERT_EQ(rec.committed.size(), 1u);
  EXPECT_EQ(rec.committed[0].tx, 0);
  EXPECT_EQ(rec.committed[0].name, "t0");
  EXPECT_EQ(rec.store->LatestCommittedSnapshot(), (ValueVector{10, 11, 0}));

  // The carried writer can still commit after the checkpoint.
  s.wal.LogTxPayload(1, "t1", {10, 11, 0}, {0}, {{0, 20}});
  s.store.CommitWriter(1);
  RecoveryResult after = s.wal.Recover();
  ASSERT_EQ(after.committed.size(), 2u);
  EXPECT_EQ(after.committed[1].tx, 1);
  EXPECT_EQ(after.store->LatestCommittedSnapshot(), (ValueVector{20, 11, 0}));
  EXPECT_EQ(after.store->ChainSize(0), 3);  // Initial, then w0, then w1.
}

TEST(WalTest, LegacyCheckpointFrameWithoutTokensStillDecodes) {
  // Hand-encode the pre-commit-token checkpoint layout under the legacy
  // kind byte: committed entries go straight from tx id to tx body, no
  // u64 token field. A WAL checkpointed by an older build must keep
  // recovering — the kind byte is the format version.
  std::string payload;
  PutU32(1, &payload);  // One committed transaction.
  PutU32(7, &payload);  // tx id (i32).
  PutLenString("t7", &payload);
  PutU32(2, &payload);  // input_state: {5, 6}.
  PutU64(5, &payload);
  PutU64(6, &payload);
  PutU32(0, &payload);  // No feeders.
  PutU32(1, &payload);  // One write: e0 = 9.
  PutU32(0, &payload);
  PutU64(9, &payload);
  PutU32(1, &payload);  // One chain of one version: writer 7 wrote 9.
  PutU32(1, &payload);
  PutU32(7, &payload);
  PutU64(9, &payload);
  std::string frame = FrameBytes(wal_format::kCheckpointFrameKind, payload);

  wal_format::DecodedFrame decoded =
      wal_format::DecodeFrame(frame.data(), frame.size());
  ASSERT_EQ(decoded.status, wal_format::FrameStatus::kOk);
  ASSERT_TRUE(decoded.is_checkpoint);
  ASSERT_EQ(decoded.checkpoint.committed.size(), 1u);
  const RecoveredTx& tx = decoded.checkpoint.committed[0];
  EXPECT_EQ(tx.tx, 7);
  EXPECT_EQ(tx.commit_token, 0u);  // Legacy layout: no token was logged.
  EXPECT_EQ(tx.name, "t7");
  EXPECT_EQ(tx.input_state, (ValueVector{5, 6}));
  ASSERT_EQ(tx.writes.size(), 1u);
  EXPECT_EQ(tx.writes[0], (std::pair<EntityId, Value>{0, 9}));
  ASSERT_EQ(decoded.checkpoint.chains.size(), 1u);
}

TEST(WalTest, CheckpointTokensRoundTripThroughV2Frames) {
  WalCheckpoint checkpoint;
  RecoveredTx tx;
  tx.tx = 3;
  tx.name = "tok";
  tx.commit_token = 0xFEED'FACE'CAFE'BEEFull;
  tx.input_state = {1};
  tx.writes = {{0, 2}};
  checkpoint.committed.push_back(tx);
  std::string frame;
  wal_format::AppendCheckpointFrame(checkpoint, &frame);
  // The writer emits the v2 kind byte (offset 4, after the frame magic).
  ASSERT_GT(frame.size(), 4u);
  EXPECT_EQ(static_cast<uint8_t>(frame[4]), wal_format::kCheckpointFrameKindV2);
  wal_format::DecodedFrame decoded =
      wal_format::DecodeFrame(frame.data(), frame.size());
  ASSERT_EQ(decoded.status, wal_format::FrameStatus::kOk);
  ASSERT_TRUE(decoded.is_checkpoint);
  ASSERT_EQ(decoded.checkpoint.committed.size(), 1u);
  EXPECT_EQ(decoded.checkpoint.committed[0].commit_token,
            0xFEED'FACE'CAFE'BEEFull);
}

TEST(WalTest, CompactToReplacesTheLogWithTheRecoveredState) {
  LoggedStore s;
  RecoveryResult rec = s.wal.Recover();
  int64_t reclaimed = s.wal.CompactTo(rec);
  EXPECT_GE(reclaimed, 1);
  // Recovered state holds only committed work: the compacted log is a
  // bare checkpoint, writer 1's in-flight append is gone with the history.
  EXPECT_EQ(s.wal.size(), 0u);
  EXPECT_EQ(s.wal.stats().compactions, 1);
  RecoveryResult after = s.wal.Recover();
  ASSERT_TRUE(after.status.ok());
  EXPECT_TRUE(after.checkpoint_restored);
  ASSERT_EQ(after.committed.size(), 1u);
  EXPECT_EQ(after.committed[0].tx, 0);
  EXPECT_EQ(after.store->LatestCommittedSnapshot(), (ValueVector{10, 11, 0}));
}

TEST(WalTest, TornTailIsTruncatedAndTheMediumFailsSticky) {
  FailpointRegistry::Global().Seed(7);
  WriteAheadLog wal({0});
  VersionStore store(wal.initial());
  store.SetWal(&wal);
  store.Append(0, 1, /*writer=*/0);
  wal.LogTxPayload(0, "a", {0}, {}, {{0, 1}});
  store.CommitWriter(0);
  {
    ScopedFailpoint fp("wal.torn_tail", FailpointSpec{1.0, 0, 1});
    store.Append(0, 2, /*writer=*/1);  // Torn mid-frame; device dies.
  }
  WalStats stats = wal.stats();
  EXPECT_EQ(stats.torn_writes, 1);
  EXPECT_TRUE(stats.media_failed);
  store.Append(0, 3, /*writer=*/1);  // Swallowed by the failed medium.
  EXPECT_EQ(wal.stats().dropped_records, 1);

  // Recovery truncates the torn frame and keeps the committed prefix —
  // normal crash semantics, not corruption.
  RecoveryResult rec = wal.Recover();
  ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
  EXPECT_TRUE(rec.truncated_tail);
  EXPECT_FALSE(rec.corruption_detected);
  EXPECT_EQ(rec.store->LatestCommittedSnapshot(), (ValueVector{1}));

  // Restart replaces the medium and repairs the tail; logging resumes.
  wal.LogCrashMarker();
  EXPECT_FALSE(wal.stats().media_failed);
  RecoveryResult clean = wal.Recover();
  EXPECT_FALSE(clean.truncated_tail);
  store.Append(0, 4, /*writer=*/2);
  EXPECT_EQ(wal.Snapshot().back().value, 4);
}

TEST(WalTest, BitFlipMidLogIsDetectedNeverSilent) {
  FailpointRegistry::Global().Seed(11);
  WriteAheadLog wal({0});
  VersionStore store(wal.initial());
  store.SetWal(&wal);
  {
    ScopedFailpoint fp("wal.bit_flip", FailpointSpec{1.0, 0, 1});
    store.Append(0, 1, /*writer=*/0);  // Lands with one byte wrong.
  }
  wal.LogTxPayload(0, "a", {0}, {}, {{0, 1}});
  store.CommitWriter(0);  // Valid frames AFTER the damage: mid-log corruption.
  EXPECT_EQ(wal.stats().bit_flips, 1);

  RecoveryResult strict = wal.Recover();
  EXPECT_FALSE(strict.status.ok());
  EXPECT_TRUE(strict.corruption_detected);
  bool corrupt_diag = false;
  for (const SegmentDiagnostic& d : strict.segments) {
    corrupt_diag |= d.state == SegmentDiagnostic::State::kCorrupt;
  }
  EXPECT_TRUE(corrupt_diag);

  RecoveryOptions opts;
  opts.best_effort = true;
  RecoveryResult salvage = wal.Recover(opts);
  ASSERT_TRUE(salvage.status.ok()) << salvage.status.ToString();
  EXPECT_TRUE(salvage.corruption_detected);
  EXPECT_TRUE(salvage.salvaged);
  // Nothing decodable precedes the flipped frame: the salvageable
  // committed prefix is empty.
  EXPECT_TRUE(salvage.committed.empty());
  EXPECT_EQ(salvage.store->LatestCommittedSnapshot(), (ValueVector{0}));
}

TEST(WalTest, SegmentHeaderSeqBitFlipIsDetected) {
  // A checkpointed image starts with one segment past seq 0; a flipped seq
  // bit must never pass for another valid seq (recovery would then replay
  // the image as complete).
  LoggedStore s;
  ASSERT_TRUE(s.wal.Checkpoint().ok());
  const std::string image = s.wal.SerializedImage();
  wal_format::SegmentHeader header;
  ASSERT_TRUE(
      wal_format::DecodeSegmentHeader(image.data(), image.size(), &header));
  ASSERT_NE(header.seq, 0u);
  ASSERT_EQ(header.bytes, wal_format::kSegmentHeaderBytes +
                              wal_format::kSegmentHeaderCrcBytes);
  constexpr size_t kSeqOffset = 8;
  for (int bit = 0; bit < 64; ++bit) {
    std::string damaged = image;
    damaged[kSeqOffset + bit / 8] ^= static_cast<char>(1 << (bit % 8));
    RecoveryResult rec =
        WriteAheadLog::FromImage(damaged, s.wal.initial())->Recover();
    EXPECT_TRUE(rec.corruption_detected) << "seq bit " << bit;
    EXPECT_FALSE(rec.status.ok()) << "seq bit " << bit;
  }
}

TEST(WalTest, V1SegmentHeaderWithoutCrcStillDecodes) {
  // An image written before the header CRC: the same frames behind a
  // 17-byte magic|seq|flags header without the CRC flag. It must recover
  // exactly like the v2 image, before and after a checkpoint.
  LoggedStore s;
  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      ASSERT_TRUE(s.wal.Checkpoint().ok());
    }
    const std::string image = s.wal.SerializedImage();
    wal_format::SegmentHeader v2;
    ASSERT_TRUE(
        wal_format::DecodeSegmentHeader(image.data(), image.size(), &v2));
    std::string v1_image;
    PutU64(wal_format::kSegmentMagic, &v1_image);
    PutU64(v2.seq, &v1_image);
    PutU8(v2.lost ? wal_format::kSegmentFlagLost : 0, &v1_image);
    v1_image += image.substr(v2.bytes);
    wal_format::SegmentHeader v1;
    ASSERT_TRUE(wal_format::DecodeSegmentHeader(v1_image.data(),
                                                v1_image.size(), &v1));
    EXPECT_EQ(v1.bytes, wal_format::kSegmentHeaderBytes);
    EXPECT_EQ(v1.seq, v2.seq);
    EXPECT_EQ(wal_format::RecordEndOffsets(v1_image).size(),
              wal_format::RecordEndOffsets(image).size());

    std::unique_ptr<WriteAheadLog> copy =
        WriteAheadLog::FromImage(v1_image, s.wal.initial());
    EXPECT_EQ(copy->size(), s.wal.size()) << "round " << round;
    RecoveryResult expected = s.wal.Recover();
    RecoveryResult rec = copy->Recover();
    ASSERT_TRUE(rec.status.ok()) << "round " << round;
    EXPECT_FALSE(rec.corruption_detected) << "round " << round;
    EXPECT_EQ(rec.committed.size(), expected.committed.size());
    EXPECT_EQ(rec.replayed_appends, expected.replayed_appends);
    EXPECT_EQ(rec.store->LatestCommittedSnapshot(),
              expected.store->LatestCommittedSnapshot());
  }
}

TEST(WalTest, LostSegmentIsReportedThroughItsTombstone) {
  FailpointRegistry::Global().Seed(13);
  WriteAheadLog wal({0}, /*segment_bytes=*/64);
  VersionStore store(wal.initial());
  store.SetWal(&wal);
  ScopedFailpoint fp("wal.segment_lost", FailpointSpec{1.0, 0, 1});
  for (int w = 0; w < 6; ++w) {
    store.Append(0, w + 1, w);
    store.CommitWriter(w);
  }
  ASSERT_EQ(wal.stats().lost_segments, 1);  // First seal dropped its data.

  RecoveryResult strict = wal.Recover();
  EXPECT_FALSE(strict.status.ok());
  EXPECT_TRUE(strict.corruption_detected);
  bool lost_diag = false;
  for (const SegmentDiagnostic& d : strict.segments) {
    lost_diag |= d.state == SegmentDiagnostic::State::kLost;
  }
  EXPECT_TRUE(lost_diag);

  RecoveryOptions opts;
  opts.best_effort = true;
  RecoveryResult salvage = wal.Recover(opts);
  ASSERT_TRUE(salvage.status.ok());
  EXPECT_TRUE(salvage.salvaged);
  // The lost segment was the log's head: nothing verifiable precedes it.
  EXPECT_TRUE(salvage.committed.empty());
  EXPECT_EQ(salvage.store->LatestCommittedSnapshot(), (ValueVector{0}));
}

TEST(WalTest, WriteErrorFailsTheMediumUntilRestart) {
  WriteAheadLog wal({0});
  VersionStore store(wal.initial());
  store.SetWal(&wal);
  {
    ScopedFailpoint fp("wal.write_error", FailpointSpec{1.0, 0, 1});
    store.Append(0, 1, /*writer=*/0);  // Never reaches the medium.
  }
  store.Append(0, 2, /*writer=*/0);  // Sticky failure swallows this too.
  EXPECT_EQ(wal.size(), 0u);
  WalStats stats = wal.stats();
  EXPECT_EQ(stats.write_errors, 1);
  EXPECT_EQ(stats.dropped_records, 1);
  EXPECT_TRUE(stats.media_failed);

  wal.LogCrashMarker();  // Restart replaces the medium.
  EXPECT_FALSE(wal.stats().media_failed);
  store.Append(0, 3, /*writer=*/0);
  EXPECT_EQ(wal.size(), 2u);  // Crash marker + the new append.
}

TEST(WalTest, CheckpointRefusesToLaunderADamagedImage) {
  FailpointRegistry::Global().Seed(17);
  WriteAheadLog wal({0});
  VersionStore store(wal.initial());
  store.SetWal(&wal);
  {
    ScopedFailpoint fp("wal.bit_flip", FailpointSpec{1.0, 0, 1});
    store.Append(0, 1, /*writer=*/0);
  }
  store.CommitWriter(0);  // Valid frame after the flip: corruption.
  Status cp = wal.Checkpoint();
  EXPECT_FALSE(cp.ok());
  // The damage is still visible to recovery (nothing was compacted away).
  EXPECT_TRUE(wal.Recover().corruption_detected);
}

TEST(WalTest, GroupCommitFlushesBatchesAndAcksCommits) {
  WriteAheadLog wal({0, 0, 0});
  VersionStore store(wal.initial());
  store.SetWal(&wal);
  wal.EnableGroupCommit();
  ASSERT_TRUE(wal.group_commit_enabled());

  store.Append(0, 10, /*writer=*/0);
  store.Append(1, 11, /*writer=*/0);
  wal.LogTxPayload(0, "t0", {0, 0, 0}, {}, {{0, 10}, {1, 11}});
  WalCommitHandle h0 = store.CommitWriter(0);
  EXPECT_TRUE(wal.WaitDurable(h0));
  store.Append(2, 12, /*writer=*/1);
  wal.LogTxPayload(1, "t1", {10, 11, 0}, {0}, {{2, 12}});
  WalCommitHandle h1 = store.CommitWriter(1);
  EXPECT_TRUE(wal.WaitDurable(h1));
  wal.Flush();

  const ProtocolMetrics& m = *wal.metrics();
  EXPECT_GE(m.group_commit_batches.value(), 1);
  // 3 appends + 2 payloads + 2 commits.
  EXPECT_EQ(m.group_commit_frames.value(), 7);
  EXPECT_EQ(m.group_commit_commits.value(), 2);
  EXPECT_EQ(m.group_commit_failed_acks.value(), 0);
  // One flush per batch, never per commit.
  EXPECT_LE(m.wal_device_flushes.value(), m.group_commit_batches.value());

  // The durable image is indistinguishable from a sync-mode log: same
  // records, same recovery.
  RecoveryResult rec = wal.Recover();
  ASSERT_TRUE(rec.status.ok());
  ASSERT_EQ(rec.committed.size(), 2u);
  EXPECT_EQ(rec.committed[0].tx, 0);
  EXPECT_EQ(rec.committed[1].tx, 1);
  EXPECT_EQ(rec.store->LatestCommittedSnapshot(), (ValueVector{10, 11, 12}));

  wal.DisableGroupCommit();
  EXPECT_FALSE(wal.group_commit_enabled());
}

TEST(WalTest, GroupCommitDefaultHandleIsResolvedOk) {
  WriteAheadLog wal({0});
  WalCommitHandle null_handle;
  EXPECT_FALSE(static_cast<bool>(null_handle));
  EXPECT_TRUE(wal.WaitDurable(null_handle));
}

// Satellite audit: torn-tail truncation must never salvage a writer's
// kCommit while dropping one of its earlier kAppend frames. FIFO staging
// plus prefix-only truncation make the bad state unrepresentable; this
// pins the invariant over batched writes across many torn-prefix draws.
TEST(WalTest, TornBatchNeverSalvagesACommitWithoutItsAppends) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    FailpointRegistry::Global().Seed(seed);
    WriteAheadLog wal({0, 0});
    VersionStore store(wal.initial());
    store.SetWal(&wal);
    wal.EnableGroupCommit();
    wal.HoldFlushesForTest(true);
    // Writer 0's whole life (2 appends + payload + commit) lands in ONE
    // batch, so the torn write cuts inside the batch at a random byte.
    store.Append(0, 1, /*writer=*/0);
    store.Append(1, 2, /*writer=*/0);
    wal.LogTxPayload(0, "a", {0, 0}, {}, {{0, 1}, {1, 2}});
    WalCommitHandle h = store.CommitWriter(0);
    // A second writer's in-flight append trails the commit in the same
    // batch, so torn prefixes exist that keep the commit whole.
    store.Append(0, 9, /*writer=*/1);
    ScopedFailpoint fp("wal.torn_tail", FailpointSpec{1.0, 0, 1});
    wal.HoldFlushesForTest(false);
    bool acked = wal.WaitDurable(h);
    wal.Flush();
    EXPECT_FALSE(acked) << "torn batch must fail its acks (seed " << seed
                        << ")";
    EXPECT_TRUE(wal.stats().media_failed);

    RecoveryResult rec = wal.Recover();
    ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
    EXPECT_FALSE(rec.corruption_detected) << "seed " << seed;
    ValueVector snapshot = rec.store->LatestCommittedSnapshot();
    if (rec.committed.empty()) {
      EXPECT_EQ(snapshot, (ValueVector{0, 0})) << "seed " << seed;
    } else {
      // The commit survived the torn prefix: every one of the writer's
      // appends preceded it in the batch, so its effects are complete.
      ASSERT_EQ(rec.committed.size(), 1u);
      EXPECT_EQ(rec.committed[0].tx, 0);
      EXPECT_EQ(snapshot, (ValueVector{1, 2})) << "seed " << seed;
    }
  }
}

// Satellite bugfix: a media fault anywhere in a batch fails EVERY commit
// ack in it — no partial-batch success — and the sticky failed medium
// still clears on crash restart.
TEST(WalTest, WriteErrorMidBatchFailsEveryAckInTheBatch) {
  FailpointRegistry::Global().Seed(23);
  WriteAheadLog wal({0, 0});
  wal.EnableGroupCommit();
  wal.HoldFlushesForTest(true);
  // Two independent committers share the staged batch.
  wal.LogAppend(0, 1, /*writer=*/0);
  wal.LogTxPayload(0, "a", {0, 0}, {}, {{0, 1}});
  WalCommitHandle ha = wal.LogCommit(0);
  wal.LogAppend(1, 2, /*writer=*/1);
  wal.LogTxPayload(1, "b", {0, 0}, {}, {{1, 2}});
  WalCommitHandle hb = wal.LogCommit(1);
  {
    ScopedFailpoint fp("wal.write_error", FailpointSpec{1.0, 0, 1});
    wal.HoldFlushesForTest(false);
    EXPECT_FALSE(wal.WaitDurable(ha));
    EXPECT_FALSE(wal.WaitDurable(hb));
    wal.Flush();
  }
  EXPECT_TRUE(wal.stats().media_failed);
  EXPECT_EQ(wal.metrics()->group_commit_failed_acks.value(), 2);
  EXPECT_EQ(wal.size(), 0u);  // Nothing reached the medium.

  // Crash restart replaces the medium; the pipeline resumes cleanly.
  wal.LogCrashMarker();
  EXPECT_FALSE(wal.stats().media_failed);
  wal.LogAppend(0, 3, /*writer=*/2);
  wal.LogTxPayload(2, "c", {0, 0}, {}, {{0, 3}});
  EXPECT_TRUE(wal.WaitDurable(wal.LogCommit(2)));
  RecoveryResult rec = wal.Recover();
  ASSERT_EQ(rec.committed.size(), 1u);
  EXPECT_EQ(rec.committed[0].tx, 2);
  wal.DisableGroupCommit();
}

TEST(WalTest, CrashDiscardsStagedFramesAndFailsTheirAcks) {
  WriteAheadLog wal({0});
  wal.EnableGroupCommit();
  wal.HoldFlushesForTest(true);
  wal.LogAppend(0, 1, /*writer=*/0);
  wal.LogTxPayload(0, "a", {0}, {}, {{0, 1}});
  WalCommitHandle h = wal.LogCommit(0);
  // The crash lands between batch-stage and batch-flush: the staging
  // buffer is volatile, so the frames are gone and the ack fails.
  wal.LogCrashMarker();
  EXPECT_FALSE(wal.WaitDurable(h));
  EXPECT_EQ(wal.metrics()->group_staged_dropped.value(), 3);
  EXPECT_EQ(wal.metrics()->group_commit_failed_acks.value(), 1);
  RecoveryResult rec = wal.Recover();
  EXPECT_TRUE(rec.committed.empty());
  EXPECT_EQ(rec.store->LatestCommittedSnapshot(), (ValueVector{0}));
  // The pipeline survives the restart: release the hold and new commits
  // flush normally.
  wal.HoldFlushesForTest(false);
  wal.LogAppend(0, 2, /*writer=*/1);
  wal.LogTxPayload(1, "b", {0}, {}, {{0, 2}});
  EXPECT_TRUE(wal.WaitDurable(wal.LogCommit(1)));
  wal.DisableGroupCommit();
}

// Satellite bugfix: Checkpoint() must capture one consistent view — a
// commit racing the checkpoint is either fully inside the checkpoint
// image or fully carried forward, never compacted away.
TEST(WalTest, CheckpointRacingCommittersLosesNoAckedCommit) {
  for (bool group : {false, true}) {
    WriteAheadLog wal({0});
    if (group) wal.EnableGroupCommit();
    constexpr int kThreads = 4;
    constexpr int kPerThread = 25;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&wal, t] {
        for (int i = 0; i < kPerThread; ++i) {
          int w = t * kPerThread + i;
          wal.LogAppend(0, w + 1, w);
          wal.LogTxPayload(w, "t" + std::to_string(w), {0}, {}, {{0, w + 1}});
          EXPECT_TRUE(wal.WaitDurable(wal.LogCommit(w)));
        }
      });
    }
    std::thread checkpointer([&wal] {
      for (int i = 0; i < 50; ++i) {
        EXPECT_TRUE(wal.Checkpoint().ok());
        std::this_thread::yield();
      }
    });
    for (std::thread& w : workers) w.join();
    checkpointer.join();
    if (group) {
      wal.Flush();
      wal.DisableGroupCommit();
    }
    RecoveryResult rec = wal.Recover();
    ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
    ASSERT_EQ(rec.committed.size(),
              static_cast<size_t>(kThreads * kPerThread))
        << (group ? "group" : "sync");
    std::vector<bool> seen(kThreads * kPerThread, false);
    for (const RecoveredTx& tx : rec.committed) {
      ASSERT_GE(tx.tx, 0);
      ASSERT_LT(tx.tx, kThreads * kPerThread);
      EXPECT_FALSE(seen[tx.tx]);
      seen[tx.tx] = true;
    }
  }
}

// Satellite bugfix: a commit that lands between the recovery scan and
// CompactTo is part of the post-scan suffix and must survive compaction.
TEST(WalTest, CompactToKeepsCommitsThatLandedAfterTheRecoveryScan) {
  LoggedStore s;
  RecoveryResult rec = s.wal.Recover();
  ASSERT_EQ(rec.committed.size(), 1u);
  // Writer 1 (in flight at the scan) commits before the compaction runs.
  s.wal.LogTxPayload(1, "t1", {10, 11, 0}, {0}, {{0, 20}});
  s.store.CommitWriter(1);
  s.wal.CompactTo(rec);
  RecoveryResult after = s.wal.Recover();
  ASSERT_TRUE(after.status.ok());
  ASSERT_EQ(after.committed.size(), 2u);
  EXPECT_EQ(after.committed[0].tx, 0);
  EXPECT_EQ(after.committed[1].tx, 1);
  EXPECT_EQ(after.store->LatestCommittedSnapshot(), (ValueVector{20, 11, 0}));
}

/// Writer 1 appends e0=1 and stays pending; writer 2 then appends e0=2 and
/// commits. Chain order is log order, so once writer 1 commits too the
/// latest committed e0 is still writer 2's.
struct InterleavedWriters {
  InterleavedWriters() : wal({0}), store(wal.initial()) {
    store.SetWal(&wal);
    store.Append(0, 1, /*writer=*/1);
    store.Append(0, 2, /*writer=*/2);
    wal.LogTxPayload(2, "t2", {0}, {}, {{0, 2}});
    store.CommitWriter(2);
  }

  void CommitWriter1() {
    wal.LogTxPayload(1, "t1", {0}, {}, {{0, 1}});
    store.CommitWriter(1);
  }

  /// Recovery must agree with the live store and with a full replay.
  void ExpectChainOrderKept() const {
    ASSERT_EQ(store.LatestCommittedSnapshot(), (ValueVector{2}));
    RecoveryResult rec = wal.Recover();
    ASSERT_TRUE(rec.status.ok()) << rec.status.ToString();
    EXPECT_EQ(rec.store->LatestCommittedSnapshot(), (ValueVector{2}));
    ASSERT_EQ(rec.store->ChainSize(0), 3);
    EXPECT_EQ(rec.store->ChainSnapshot(0)[1].writer, 1);
    EXPECT_EQ(rec.store->ChainSnapshot(0)[2].writer, 2);
    ASSERT_EQ(rec.committed.size(), 2u);
    EXPECT_EQ(rec.committed[0].tx, 2);
    EXPECT_EQ(rec.committed[1].tx, 1);
  }

  WriteAheadLog wal;
  VersionStore store;
};

TEST(WalTest, CheckpointKeepsChainOrderUnderAPendingWriter) {
  InterleavedWriters s;
  ASSERT_TRUE(s.wal.Checkpoint().ok());
  s.CommitWriter1();
  s.ExpectChainOrderKept();
}

TEST(WalTest, CompactToKeepsChainOrderOfASuffixCommitter) {
  InterleavedWriters s;
  RecoveryResult scan = s.wal.Recover();
  s.CommitWriter1();  // Lands after the scan: writer 1 is carried.
  s.wal.CompactTo(scan);
  s.ExpectChainOrderKept();
}

TEST(WalTest, DetachedStoreDoesNotLog) {
  WriteAheadLog wal({0});
  VersionStore store(wal.initial());
  store.SetWal(&wal);
  store.Append(0, 1, /*writer=*/0);
  store.SetWal(nullptr);
  store.Append(0, 2, /*writer=*/0);
  EXPECT_EQ(wal.size(), 1u);
}

}  // namespace
}  // namespace nonserial
