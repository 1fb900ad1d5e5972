#ifndef NONSERIAL_STORAGE_WAL_H_
#define NONSERIAL_STORAGE_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "model/state.h"
#include "predicate/value.h"

namespace nonserial {

class TraceSink;
class VersionStore;

/// One redo-log record. The log is logical-redo: it captures version
/// installs (appends), writer terminations (commit / rollback), the
/// logical commit payload the verifier needs, and crash markers written by
/// recovery itself (every append pending at a crash marker is a loser).
struct WalRecord {
  enum class Kind : uint8_t {
    kAppend,     ///< Writer installed a new version of `entity`.
    kCommit,     ///< Writer committed: its pending appends are durable.
    kRollback,   ///< Writer rolled back: its pending appends are dead.
    kTxPayload,  ///< Logical commit record (verification payload); always
                 ///< logged immediately before the writer's kCommit.
    kCrash,      ///< Recovery marker: everything pending before it is lost.
    kCommitToken ///< Client idempotency token for the writer's commit;
                 ///< logged immediately before kTxPayload, durable iff the
                 ///< commit itself is (exactly-once across reconnects).
  };

  Kind kind = Kind::kAppend;
  int writer = -1;
  EntityId entity = kInvalidEntity;  ///< kAppend only.
  Value value = 0;                   ///< kAppend only.
  uint64_t token = 0;                ///< kCommitToken only.

  // kTxPayload only — mirrors CorrectExecutionProtocol::TxRecord.
  std::string name;
  ValueVector input_state;
  std::vector<int> feeders;
  std::vector<std::pair<EntityId, Value>> writes;
};

/// A committed transaction reconstructed from the log (its kTxPayload).
struct RecoveredTx {
  int tx = -1;
  std::string name;
  ValueVector input_state;
  std::vector<int> feeders;
  std::vector<std::pair<EntityId, Value>> writes;
  /// Client idempotency token (kCommitToken record), 0 if none was logged.
  uint64_t commit_token = 0;
};

/// The state a checkpoint frame captures: the committed transactions (in
/// commit order, payloads included so recovery can still hand the verifier
/// the full history) plus the committed portion of every version chain (in
/// chain order, initial versions excluded), so a store rebuilt from the
/// checkpoint is indistinguishable from one rebuilt by full replay.
struct WalCheckpoint {
  std::vector<RecoveredTx> committed;
  /// chains[e] = committed live versions of entity e beyond the initial
  /// one, as (writer, value), in chain (= original log) order.
  std::vector<std::vector<std::pair<int, Value>>> chains;
};

/// Health verdict for one scanned segment of the durable image.
struct SegmentDiagnostic {
  enum class State : uint8_t {
    kOk,        ///< Every frame decoded.
    kTornTail,  ///< Trailing frame incomplete/corrupt, nothing valid after
                ///< it anywhere — truncated as a normal crash artifact.
    kCorrupt,   ///< Undecodable frame with valid data after it (bit flip /
                ///< destroyed boundary): mid-log corruption.
    kLost       ///< Whole segment missing (tombstone or sequence gap).
  };

  uint64_t seq = 0;
  int64_t frames = 0;  ///< Frames successfully decoded in this segment.
  int64_t bytes = 0;
  State state = State::kOk;
  int64_t first_bad_offset = -1;  ///< Offset into the segment, when bad.
  std::string detail;
};

/// Knobs for one recovery pass.
struct RecoveryOptions {
  /// Replay only the first `prefix_records` decodable records (crash-point
  /// simulation). The checkpoint base, when present, is always applied.
  size_t prefix_records = std::numeric_limits<size_t>::max();
  /// Mid-log corruption policy: false (strict) reports an error Status and
  /// replays nothing past the corruption; true salvages the longest
  /// verifiable committed prefix and reports ok with `salvaged` set.
  bool best_effort = false;
};

/// Outcome of a recovery pass.
struct RecoveryResult {
  std::shared_ptr<VersionStore> store;  ///< Committed installs only.
  std::vector<RecoveredTx> committed;   ///< In log (= commit) order.
  int64_t replayed_appends = 0;
  int64_t discarded_appends = 0;  ///< In-flight at the crash point.

  /// Record frames decodable in the image this pass scanned (before any
  /// prefix_records truncation). CompactTo uses it as the consistent-view
  /// boundary: records appended after this point were not part of the
  /// recovered state and must be carried forward, not compacted away.
  int64_t image_records = 0;
  /// Records actually consumed by the replay (= image_records unless
  /// prefix_records cut the log shorter). Records between this and
  /// image_records were deliberately dropped by the crash-point simulation
  /// and stay dropped on compaction.
  int64_t replayed_records = 0;

  /// Not-ok iff mid-log corruption was found and best_effort was off. The
  /// store/committed fields then still hold the salvageable prefix so the
  /// caller can inspect what a best-effort pass would return.
  Status status;
  bool checkpoint_restored = false;  ///< A checkpoint frame seeded the store.
  bool truncated_tail = false;       ///< Torn/bad-CRC tail dropped (normal).
  bool corruption_detected = false;  ///< Mid-log corruption or lost segment.
  bool salvaged = false;             ///< Best-effort kept the valid prefix.
  int64_t frames_scanned = 0;
  int64_t frames_truncated = 0;  ///< Frames dropped at the torn tail.
  int64_t frames_salvaged = 0;   ///< Records replayed despite corruption.
  int64_t recovery_micros = 0;   ///< Wall clock of the scan + redo.
  std::vector<SegmentDiagnostic> segments;
};

/// Cheap point-in-time counters (no record copying — see Snapshot()).
struct WalStats {
  int64_t records = 0;     ///< Record frames since the last checkpoint.
  int64_t bytes = 0;       ///< Live bytes across all segments.
  int64_t segments = 0;    ///< Live segments (lost tombstones included).
  int64_t checkpoints = 0;           ///< Lifetime checkpoint installs.
  int64_t compactions = 0;           ///< Lifetime compaction events.
  int64_t segments_reclaimed = 0;    ///< Lifetime segments dropped.
  int64_t total_records = 0;         ///< Lifetime records appended.
  // Media faults injected so far (see the wal.* failpoints).
  int64_t write_errors = 0;
  int64_t torn_writes = 0;
  int64_t bit_flips = 0;
  int64_t lost_segments = 0;
  int64_t dropped_records = 0;  ///< Appends swallowed by a failed medium.
  bool media_failed = false;    ///< Sticky write failure until restart.
};

/// Durability acknowledgment for one commit record. Obtained from
/// LogCommit (via VersionStore::CommitWriter); redeem it with
/// WriteAheadLog::WaitDurable *after* releasing any engine-level lock, so
/// concurrent committers can share one batch flush. A default-constructed
/// handle is resolved-ok (no WAL / no durability to wait for).
class WalCommitHandle {
 public:
  WalCommitHandle() = default;
  explicit operator bool() const { return state_ != nullptr; }

 private:
  friend class WriteAheadLog;
  struct AckState {
    bool done = false;
    bool ok = false;
  };
  std::shared_ptr<AckState> state_;
};

/// Write-ahead redo log for VersionStore. The store logs every Append /
/// CommitWriter / RollbackWriter before the mutation becomes visible (see
/// VersionStore::SetWal), and the protocol engine logs the logical commit
/// payload just before the commit marker, so any prefix of the log is a
/// consistent crash image: a transaction is durable iff its kCommit record
/// made it into the prefix.
///
/// The durable medium is simulated in memory, but with the full framing a
/// real device would need: records serialize into length-prefixed,
/// CRC32-checked frames that accumulate into fixed-size segments (see
/// storage/wal_format.h). A checkpoint captures the committed state in one
/// frame and lets every earlier segment be reclaimed, so the log stays
/// bounded under sustained crash/recovery churn. Storage-media faults are
/// injectable through failpoints evaluated on the one media-write path
/// (every write is a chunk of whole frames; see AppendChunkLocked):
///
///   wal.torn_tail     frame written partially; medium fails sticky
///   wal.bit_flip      one byte of the just-written frame flipped
///   wal.segment_lost  sealed segment dropped (tombstone kept)
///   wal.write_error   frame not written at all; medium fails sticky
///
/// A sticky failure swallows every later append until LogCrashMarker()
/// (the restart point) repairs the tail and replaces the medium.
///
/// Commit durability has two modes over that one write path. In the
/// default sync mode every record is written inline as a one-frame chunk
/// under the log mutex, and every LogCommit pays one simulated device
/// flush (set_flush_us) there — the single-global-lock baseline.
/// EnableGroupCommit starts a dedicated writer thread: loggers
/// stage frames into a volatile buffer and LogCommit returns a
/// WalCommitHandle immediately; the writer drains the staging buffer in
/// FIFO batches, appends each batch to the durable image as one write,
/// pays ONE device flush for the whole batch, and then resolves every
/// commit ack staged in it. Batch N+1 stages while batch N flushes (the
/// pipeline). Acks are all-or-nothing per batch: a media fault anywhere
/// in a batch fails every commit ack in it, and a crash (LogCrashMarker)
/// discards the volatile staging buffer, failing its acks — frames that
/// reached the medium but were never acked are the standard crash
/// ambiguity and recovery treats them like any other durable record.
///
/// Recover() scans the image defensively: a torn or bad-CRC tail is
/// truncated and recovery proceeds from the last valid record (normal
/// crash semantics); mid-log corruption — a bad frame or lost segment with
/// valid data after it — is reported via RecoveryResult::status with
/// per-segment diagnostics, and optionally salvaged (best_effort) by
/// keeping the longest verifiable committed prefix.
///
/// Thread safety: all methods are safe to call concurrently.
class WriteAheadLog {
 public:
  static constexpr size_t kWholeLog = std::numeric_limits<size_t>::max();
  /// Default segment size. Small enough that chaos-length runs roll over
  /// several segments (exercising seal and segment-lost paths), large
  /// enough that framing overhead stays negligible.
  static constexpr size_t kDefaultSegmentBytes = 4096;

  explicit WriteAheadLog(ValueVector initial,
                         size_t segment_bytes = kDefaultSegmentBytes)
      : initial_(std::move(initial)), segment_bytes_(segment_bytes) {}

  ~WriteAheadLog();

  /// Rebuilds a log object from a serialized image (crash-image fuzzing:
  /// any byte-prefix or corruption of an image is a legal input; Recover()
  /// classifies the damage). The image is split on segment headers.
  static std::unique_ptr<WriteAheadLog> FromImage(
      const std::string& image, ValueVector initial,
      size_t segment_bytes = kDefaultSegmentBytes);

  void LogAppend(EntityId entity, Value value, int writer);
  /// Logs the writer's commit record. The returned handle resolves when
  /// the record is durable: immediately in sync mode (the flush is paid
  /// inline), or at the staging batch's flush epoch under group commit.
  /// Callers that need durability must WaitDurable(handle) — after
  /// dropping any engine lock, so other committers can join the batch.
  WalCommitHandle LogCommit(int writer);
  void LogRollback(int writer);
  /// Logs the client idempotency token for the writer's upcoming commit.
  /// Logged (by the engine) immediately before LogTxPayload, so the token
  /// is durable exactly when the commit is: a crash before the kCommit
  /// frame leaves the transaction uncommitted and the token unbound.
  void LogCommitToken(int writer, uint64_t token);
  void LogTxPayload(int writer, std::string name, ValueVector input_state,
                    std::vector<int> feeders,
                    std::vector<std::pair<EntityId, Value>> writes);
  /// Appended by recovery before the restarted engine writes new records:
  /// marks every earlier pending append as lost, so a writer id re-running
  /// after the crash cannot resurrect its pre-crash in-flight versions.
  /// Restart also replaces the failed medium: a sticky write failure is
  /// cleared and a torn tail is physically truncated before the marker is
  /// written (real recovery repairs the tail before resuming logging).
  void LogCrashMarker();

  /// Blocks until `handle`'s commit record is durable. Returns false if
  /// the ack failed (media fault in its batch, or a crash discarded the
  /// staged frame). A null handle returns true.
  bool WaitDurable(const WalCommitHandle& handle) const;

  /// Starts the pipelined group-commit writer thread. Idempotent; safe to
  /// call before workers start logging.
  void EnableGroupCommit();
  /// Flushes outstanding staged frames and stops the writer thread;
  /// subsequent commits are sync again. Idempotent.
  void DisableGroupCommit();
  /// Blocks until every frame staged before the call is flushed (or
  /// failed). No-op in sync mode.
  void Flush();
  bool group_commit_enabled() const;

  /// Frames staged for the group-commit writer but not yet flushed (or
  /// failed) — the pipeline backlog. Admission control sheds new
  /// transactions when this falls behind (see engine/engine.h). Always 0
  /// in sync mode.
  uint64_t PipelineDepth() const;

  /// Simulated device-flush latency charged per durable commit: once per
  /// commit record in sync mode, once per batch under group commit. The
  /// busy-wait models a storage barrier; 0 (default) disables it.
  void set_flush_us(int64_t us);

  /// Counts the commit path into `metrics` from now on: device flushes,
  /// group-commit batches, frames, commits, ack stalls and failed acks, and
  /// staged frames a crash dropped. Not owned; nullptr returns to the
  /// sink the log owns. Safe while loggers run.
  void SetMetrics(ProtocolMetrics* metrics) { metrics_.Attach(metrics); }
  /// The sink the commit path counts into (never null).
  ProtocolMetrics* metrics() const { return metrics_.get(); }

  /// Attaches a trace sink; the writer emits a kWalBatchFlush event per
  /// batch (frames, commits, stall count, flush epoch). Pass nullptr to
  /// detach. The sink must outlive the log or the next SetObserver call.
  void SetObserver(TraceSink* sink);

  /// Test seam: while held, the writer thread stages batches but parks
  /// before flushing them — a crash now lands between batch-stage and
  /// batch-flush. Releasing resumes normal flushing.
  void HoldFlushesForTest(bool hold);

  /// Record count since the last checkpoint. O(1).
  size_t size() const;

  /// Cheap counters — callers that only need sizes/health must use this
  /// (or size()/TailSince) instead of paying Snapshot()'s full decode.
  WalStats stats() const;

  /// Decodes and returns all records (checkpoint frames excluded). Full
  /// decode of the image — diagnostics and tests only; prefer stats() or
  /// TailSince() in measured paths.
  std::vector<WalRecord> Snapshot() const;

  /// Decodes and returns only the records from `index` on — the tail a
  /// caller that already saw the first `index` records needs.
  std::vector<WalRecord> TailSince(size_t index) const;

  const ValueVector& initial() const { return initial_; }

  /// Serializes the durable image (segment headers + frames; a lost
  /// segment contributes its tombstone header only).
  std::string SerializedImage() const;

  /// Replays the log into a fresh store: the checkpoint base (if any) is
  /// applied, then the first `prefix_len` records (default: all) are
  /// replayed — committed installs re-appended in log order and committed;
  /// in-flight and rolled-back installs discarded. The returned store has
  /// no WAL attached (attach with SetWal to resume logging into this same
  /// log). Equivalent to Recover(RecoveryOptions{prefix_len, false}).
  RecoveryResult Recover(size_t prefix_len = kWholeLog) const;
  RecoveryResult Recover(const RecoveryOptions& options) const;

  /// Live checkpoint + compaction: captures the committed state in a
  /// checkpoint frame, carries the records of still-pending writers
  /// forward, and reclaims everything else. When a writer is still open,
  /// the checkpoint is cut at the last point where no writer was open and
  /// every later record (less those proven dead) is carried in log order,
  /// so version chains keep their log order — an open long-running writer
  /// holds back how far the checkpoint compacts. Fails (and changes
  /// nothing) if the image is corrupt — checkpointing must never launder
  /// corruption into a "clean" log.
  Status Checkpoint();

  /// Post-recovery compaction: replaces the whole log with a checkpoint of
  /// `recovered` (the state some Recover() call of THIS log returned).
  /// Used by the chaos driver after each crash cycle: the recovered state
  /// is the new durable truth, and any corrupt or unreplayed suffix is
  /// discarded with the history. Records logged after the recovery scan
  /// are carried forward, with the open records of their writers; a
  /// writer open at the scan with no later record dies. When a writer is
  /// carried, the cut rule of Checkpoint() applies. Returns the number of
  /// segments reclaimed.
  int64_t CompactTo(const RecoveryResult& recovered);

 private:
  struct Segment {
    uint64_t seq = 0;
    std::string bytes;   ///< Frames only (header lives in seq/lost).
    int64_t frames = 0;  ///< Record frames fully written (checkpoint excluded).
    bool lost = false;
  };

  /// One record frame parked in the volatile staging buffer awaiting its
  /// batch.
  struct StagedFrame {
    std::string bytes;
    /// Set on commit frames: the ack the batch flush resolves.
    std::shared_ptr<WalCommitHandle::AckState> ack;
  };

  /// The one media write: appends `chunk` — whole record frames,
  /// `frame_ends` holding the offset just past each — to the active
  /// segment, sealing and rolling over as needed. The wal.write_error,
  /// wal.torn_tail and wal.bit_flip failpoints are evaluated here only. A
  /// failed medium swallows the chunk (its frames count as dropped).
  /// Returns false on a media fault; the frames the faulting write failed
  /// to land whole are added to `*lost_to` when it is non-null.
  bool AppendChunkLocked(const std::string& chunk,
                         std::span<const size_t> frame_ends, int64_t* lost_to);
  /// A one-frame chunk (sync-mode appends and the crash marker). The fault
  /// that fails it is counted as the fault alone, not as a dropped record.
  bool WriteFrameLocked(const std::string& frame);
  void SealActiveSegmentLocked();
  /// Drops a torn/corrupt tail region that has no valid frames after it.
  void RepairTailLocked();
  /// The compaction routine behind Checkpoint() (`recovered` null) and
  /// CompactTo(): one scan of the live image, one record-fate pass over it,
  /// a checkpoint at the cut, and the carried records behind it.
  /// `recovered_checkpoint` is the checkpoint of `recovered`'s store, used
  /// when the cut falls at its replay boundary.
  Status CompactLocked(const RecoveryResult* recovered,
                       WalCheckpoint recovered_checkpoint);
  /// Replaces all segments with one fresh segment holding `frames`.
  void ResetSegmentsLocked(std::string frames, int64_t record_count);
  /// Busy-waits flush_us_ (the simulated storage barrier) and counts it.
  void DeviceFlushLocked();
  /// Encodes `record` and routes it to the staging buffer (group mode) or
  /// the durable image (sync mode). Returns the ack for commit records.
  std::shared_ptr<WalCommitHandle::AckState> SubmitRecord(
      const WalRecord& record);
  /// Dedicated writer: drains staging_ in FIFO batches and flushes each.
  void WriterLoop();
  /// Appends one batch to the image under mu_, pays one device flush, and
  /// resolves (or fails, all-or-nothing) every ack in it.
  void FlushBatch(std::vector<StagedFrame> batch);
  /// Resolves `acks` with `ok` and publishes flushed_seq_ += n.
  void RetireFrames(size_t n,
                    std::vector<std::shared_ptr<WalCommitHandle::AckState>> acks,
                    bool ok);
  void StopWriterThread();

  mutable std::mutex mu_;
  std::vector<Segment> segments_;
  ValueVector initial_;
  size_t segment_bytes_;
  uint64_t next_segment_seq_ = 0;
  bool media_failed_ = false;
  WalStats stats_;

  // --- group-commit pipeline ---------------------------------------------
  // Lock order: stage_mu_ before mu_ (only LogCrashMarker holds both; the
  // writer thread takes them strictly one at a time).
  /// Serializes writer-thread lifecycle transitions (enable / disable /
  /// destructor) so concurrent teardown owners cannot double-join the
  /// writer. Ordering: writer_lifecycle_mu_ before stage_mu_; never held
  /// while flushing.
  std::mutex writer_lifecycle_mu_;
  mutable std::mutex stage_mu_;
  std::condition_variable stage_cv_;          ///< Wakes the writer thread.
  mutable std::condition_variable retire_cv_; ///< Wakes ack/Flush waiters.
  std::vector<StagedFrame> staging_;
  bool group_enabled_ = false;
  bool writer_stop_ = false;
  bool writer_busy_ = false;  ///< A batch is out of staging_, not yet retired.
  bool flush_hold_ = false;   ///< HoldFlushesForTest: park before flushing.
  uint64_t staged_seq_ = 0;   ///< Frames ever staged.
  uint64_t retired_seq_ = 0;  ///< Frames ever flushed or failed.
  std::thread writer_;
  std::atomic<int64_t> flush_us_{0};
  std::atomic<TraceSink*> observer_{nullptr};
  MetricsSink metrics_;
};

}  // namespace nonserial

#endif  // NONSERIAL_STORAGE_WAL_H_
