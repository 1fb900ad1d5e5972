#include "storage/wal.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <map>
#include <set>
#include <span>

#include "common/failpoint.h"
#include "common/logging.h"
// Header-only use (TraceEvent construction + the virtual OnEvent call):
// keeps the storage library free of link-time protocol dependencies.
#include "protocol/trace.h"
#include "storage/version_store.h"
#include "storage/wal_format.h"

namespace nonserial {
namespace {

using wal_format::DecodedFrame;
using wal_format::DecodeFrame;
using wal_format::FrameStatus;

/// Upper bound on frames the group-commit writer drains into one batch; a
/// deeper backlog rolls into the next batch (which begins flushing
/// immediately — the pipeline, not the cap, bounds latency).
constexpr size_t kMaxBatchFrames = 256;

/// True iff any complete, CRC-valid frame starts at or after `from` — the
/// probe that separates a torn tail (nothing valid follows the damage) from
/// mid-log corruption (valid data survives past it). Resynchronizes on the
/// frame magic, so a single flipped byte cannot hide a later valid frame.
bool AnyValidFrameFrom(const std::string& bytes, size_t from) {
  static const std::string kMagic = [] {
    std::string m;
    for (int i = 0; i < 4; ++i) {
      m.push_back(static_cast<char>((wal_format::kFrameMagic >> (8 * i)) & 0xFF));
    }
    return m;
  }();
  for (size_t pos = bytes.find(kMagic, from); pos != std::string::npos;
       pos = bytes.find(kMagic, pos + 1)) {
    if (DecodeFrame(bytes.data() + pos, bytes.size() - pos).status ==
        FrameStatus::kOk) {
      return true;
    }
  }
  return false;
}

struct ScanResult {
  std::vector<WalRecord> records;  ///< Decoded records before the damage.
  bool has_checkpoint = false;
  WalCheckpoint checkpoint;
  bool bad = false;              ///< Some undecodable point exists.
  bool valid_after_bad = false;  ///< Valid frames survive past the damage.
  bool lost_segment = false;     ///< A whole segment is gone.
  int64_t frames_scanned = 0;
  std::vector<SegmentDiagnostic> diags;
};

/// Walks the segments in order, decoding frames defensively. Records stop
/// accumulating at the first undecodable point; the rest of the image is
/// still probed so the caller can classify the damage (torn tail vs mid-log
/// corruption) and report per-segment diagnostics. `segs` holds segments
/// with `seq`, `bytes` and `lost`: the live ones (compaction, under the log
/// mutex) or a copy (Recover, lock-free).
template <typename Segments>
ScanResult ScanSegments(const Segments& segs) {
  ScanResult out;
  bool first_frame = true;
  for (size_t si = 0; si < segs.size(); ++si) {
    const auto& seg = segs[si];
    if (si > 0 && seg.seq != segs[si - 1].seq + 1) {
      SegmentDiagnostic gap;
      gap.seq = segs[si - 1].seq + 1;
      gap.state = SegmentDiagnostic::State::kLost;
      gap.detail = "segment missing (sequence gap)";
      out.diags.push_back(std::move(gap));
      out.bad = true;
      out.lost_segment = true;
    }
    SegmentDiagnostic d;
    d.seq = seg.seq;
    d.bytes = static_cast<int64_t>(seg.bytes.size());
    if (seg.lost) {
      d.state = SegmentDiagnostic::State::kLost;
      d.detail = "segment lost (tombstone)";
      out.diags.push_back(std::move(d));
      out.bad = true;
      out.lost_segment = true;
      continue;
    }
    size_t pos = 0;
    while (pos < seg.bytes.size()) {
      DecodedFrame f = DecodeFrame(seg.bytes.data() + pos,
                                   seg.bytes.size() - pos);
      if (f.status != FrameStatus::kOk) {
        if (out.bad) {
          // Already past the first damage; just probe for survivors.
          if (AnyValidFrameFrom(seg.bytes, pos + 1)) out.valid_after_bad = true;
        } else {
          out.bad = true;
          d.first_bad_offset = static_cast<int64_t>(pos);
          d.state = f.status == FrameStatus::kTruncated
                        ? SegmentDiagnostic::State::kTornTail
                        : SegmentDiagnostic::State::kCorrupt;
          d.detail = f.status == FrameStatus::kTruncated
                         ? "incomplete frame (torn write)"
                         : "undecodable frame (bad magic, CRC, or payload)";
          if (AnyValidFrameFrom(seg.bytes, pos + 1)) out.valid_after_bad = true;
        }
        break;
      }
      if (si == 0 && pos == 0 && seg.seq != 0 && !f.is_checkpoint) {
        // A log legitimately starts past seq 0 only after a checkpoint
        // install (ResetSegmentsLocked), which always writes the checkpoint
        // as the first frame. A first segment with a nonzero seq and no
        // leading checkpoint means the log's head was lost — without this
        // check, dropping the first segment(s) would replay a truncated
        // history as if it were complete. This very frame then counts as
        // valid data past the damage. (A damaged first frame needs no flag
        // here: the torn-vs-corrupt classification above applies.)
        SegmentDiagnostic gap;
        gap.seq = 0;
        gap.state = SegmentDiagnostic::State::kLost;
        gap.detail = "log head missing (first surviving segment has seq " +
                     std::to_string(seg.seq) + " and no checkpoint)";
        out.diags.push_back(std::move(gap));
        out.bad = true;
        out.lost_segment = true;
      }
      ++out.frames_scanned;
      if (out.bad) {
        // Valid frame past the damage: mid-log corruption, not a torn tail.
        out.valid_after_bad = true;
      } else if (f.is_checkpoint) {
        if (first_frame) {
          out.has_checkpoint = true;
          out.checkpoint = std::move(f.checkpoint);
        }
        ++d.frames;
      } else {
        out.records.push_back(std::move(f.record));
        ++d.frames;
      }
      first_frame = false;
      pos += f.frame_bytes;
    }
    out.diags.push_back(std::move(d));
  }
  // A torn/bad tail with valid data after it is corruption in disguise —
  // upgrade the diagnostic so the report names what recovery acted on.
  if (out.valid_after_bad || out.lost_segment) {
    for (SegmentDiagnostic& d : out.diags) {
      if (d.state == SegmentDiagnostic::State::kTornTail) {
        d.state = SegmentDiagnostic::State::kCorrupt;
      }
    }
  } else {
    for (SegmentDiagnostic& d : out.diags) {
      if (d.state == SegmentDiagnostic::State::kCorrupt) {
        d.state = SegmentDiagnostic::State::kTornTail;
      }
    }
  }
  return out;
}

constexpr size_t kNone = std::numeric_limits<size_t>::max();

/// The record-fate pass: the one walk that knows how each WalRecord::Kind
/// settles a writer's records. A writer's appends, payload and token stay
/// open until its kCommit commits them (binding the payload and token to
/// that commit), or its kRollback, a kCrash marker or Kill() makes them
/// dead; a newer payload or token supersedes (kills) the open one. Recovery,
/// the checkpoint carry and compaction's dead-record elimination all read
/// their answers off this pass. It holds record indices, never copies.
class FatePass {
 public:
  enum class Fate : uint8_t { kDead, kOpen, kCommitted };

  /// One writer's records since it last resolved.
  struct Open {
    std::vector<size_t> appends;
    size_t payload = kNone;
    size_t token = kNone;
  };

  explicit FatePass(const std::vector<WalRecord>& records)
      : records_(records), fate_(records.size(), Fate::kDead) {}

  /// Walks records [from, to). `on_commit(index, open)` sees each kCommit
  /// with its writer's open records, just before they commit.
  template <typename OnCommit>
  void Walk(size_t from, size_t to, OnCommit&& on_commit) {
    for (size_t i = from; i < to; ++i) {
      const WalRecord& record = records_[i];
      const int writer = record.writer;
      switch (record.kind) {
        case WalRecord::Kind::kAppend:
          fate_[i] = Fate::kOpen;
          open_[writer].appends.push_back(i);
          break;
        case WalRecord::Kind::kTxPayload:
          Supersede(&open_[writer].payload, i);
          break;
        case WalRecord::Kind::kCommitToken:
          Supersede(&open_[writer].token, i);
          break;
        case WalRecord::Kind::kCommit: {
          fate_[i] = Fate::kCommitted;
          Open& open = open_[writer];
          on_commit(i, open);
          Settle(open, Fate::kCommitted);
          open_.erase(writer);
          break;
        }
        case WalRecord::Kind::kRollback:
          Kill([writer](int w) { return w == writer; });
          break;
        case WalRecord::Kind::kCrash:
          Kill([](int) { return true; });
          break;
      }
      if (open_.empty()) last_quiet_ = i + 1;
    }
  }
  void Walk(size_t from, size_t to) {
    Walk(from, to, [](size_t, const Open&) {});
  }

  /// Kills the open records of every writer for which `dies(writer)` holds.
  template <typename Pred>
  void Kill(Pred dies) {
    for (auto it = open_.begin(); it != open_.end();) {
      if (!dies(it->first)) {
        ++it;
        continue;
      }
      Settle(it->second, Fate::kDead);
      it = open_.erase(it);
    }
  }

  Fate fate(size_t i) const { return fate_[i]; }
  /// Writers with open records, by writer id.
  const std::map<int, Open>& open() const { return open_; }
  /// The last point walked at which no writer had an open record (a record
  /// index: everything before it is settled).
  size_t last_quiet() const { return last_quiet_; }

 private:
  void Supersede(size_t* slot, size_t i) {
    if (*slot != kNone) fate_[*slot] = Fate::kDead;
    *slot = i;
    fate_[i] = Fate::kOpen;
  }

  void Settle(const Open& open, Fate fate) {
    for (size_t i : open.appends) fate_[i] = fate;
    if (open.payload != kNone) fate_[open.payload] = fate;
    if (open.token != kNone) fate_[open.token] = fate;
  }

  const std::vector<WalRecord>& records_;
  std::vector<Fate> fate_;
  std::map<int, Open> open_;
  size_t last_quiet_ = 0;
};

/// Redo of records [0, end) on top of an optional checkpoint base: the
/// base's chains first (already committed, in original chain order), then
/// the committed appends in log order, then one bulk commit — every
/// replayed version is committed by construction, so the O(versions) sweep
/// replaces per-writer CommitWriter scans. The base's committed list is
/// moved into the result, not copied.
void ReplayRecords(const std::vector<WalRecord>& log, size_t end,
                   const ValueVector& initial, WalCheckpoint* base,
                   RecoveryResult* result) {
  result->store = std::make_shared<VersionStore>(initial);
  if (base != nullptr) {
    for (size_t e = 0; e < base->chains.size(); ++e) {
      if (e >= initial.size()) break;
      for (const auto& [writer, value] : base->chains[e]) {
        result->store->Append(static_cast<EntityId>(e), value, writer);
      }
    }
    result->committed = std::move(base->committed);
  }
  FatePass pass(log);
  pass.Walk(0, end, [&](size_t commit, const FatePass::Open& open) {
    RecoveredTx tx;
    if (open.payload != kNone) {
      const WalRecord& payload = log[open.payload];
      tx.name = payload.name;
      tx.input_state = payload.input_state;
      tx.feeders = payload.feeders;
      tx.writes = payload.writes;
    } else {
      // The engine logs the payload strictly before the commit marker;
      // store-only users (tests driving CommitWriter directly) get one
      // synthesized from the commit's appends.
      tx.input_state = initial;
      for (size_t i : open.appends) {
        tx.writes.emplace_back(log[i].entity, log[i].value);
      }
    }
    tx.tx = log[commit].writer;
    if (open.token != kNone) tx.commit_token = log[open.token].token;
    result->committed.push_back(std::move(tx));
  });
  for (size_t i = 0; i < end; ++i) {
    if (log[i].kind != WalRecord::Kind::kAppend) continue;
    if (pass.fate(i) == FatePass::Fate::kCommitted) {
      result->store->Append(log[i].entity, log[i].value, log[i].writer);
      ++result->replayed_appends;
    } else {
      ++result->discarded_appends;
    }
  }
  result->store->MarkAllCommitted();
}

/// The checkpoint of a recovered state: its committed transactions, and
/// the committed live versions of every chain beyond the initial one, in
/// chain order.
WalCheckpoint CheckpointOf(RecoveryResult state, size_t entities) {
  WalCheckpoint checkpoint;
  checkpoint.committed = std::move(state.committed);
  checkpoint.chains.resize(entities);
  if (state.store == nullptr) return checkpoint;
  for (size_t e = 0; e < entities; ++e) {
    state.store->ForEachVersion(
        static_cast<EntityId>(e), [&](const Version& v, int) {
          if (v.writer == kInitialWriter || v.dead || !v.committed) return;
          checkpoint.chains[e].emplace_back(v.writer, v.value);
        });
  }
  return checkpoint;
}

WalRecord MakeRecord(WalRecord::Kind kind, int writer) {
  WalRecord record;
  record.kind = kind;
  record.writer = writer;
  return record;
}

}  // namespace

WriteAheadLog::~WriteAheadLog() { StopWriterThread(); }

void WriteAheadLog::LogAppend(EntityId entity, Value value, int writer) {
  WalRecord record = MakeRecord(WalRecord::Kind::kAppend, writer);
  record.entity = entity;
  record.value = value;
  SubmitRecord(record);
}

WalCommitHandle WriteAheadLog::LogCommit(int writer) {
  WalCommitHandle handle;
  handle.state_ = SubmitRecord(MakeRecord(WalRecord::Kind::kCommit, writer));
  return handle;
}

void WriteAheadLog::LogRollback(int writer) {
  SubmitRecord(MakeRecord(WalRecord::Kind::kRollback, writer));
}

void WriteAheadLog::LogCommitToken(int writer, uint64_t token) {
  WalRecord record = MakeRecord(WalRecord::Kind::kCommitToken, writer);
  record.token = token;
  SubmitRecord(record);
}

void WriteAheadLog::LogTxPayload(int writer, std::string name,
                                 ValueVector input_state,
                                 std::vector<int> feeders,
                                 std::vector<std::pair<EntityId, Value>> writes) {
  WalRecord record = MakeRecord(WalRecord::Kind::kTxPayload, writer);
  record.name = std::move(name);
  record.input_state = std::move(input_state);
  record.feeders = std::move(feeders);
  record.writes = std::move(writes);
  SubmitRecord(record);
}

void WriteAheadLog::LogCrashMarker() {
  // Quiesce the pipeline first: wait out any in-flight batch, then discard
  // the volatile staging buffer — staged-but-unflushed frames are exactly
  // what a crash loses — failing their commit acks. stage_mu_ stays held
  // across the mu_ section (the one place the two locks nest, and the
  // order that defines the lock hierarchy: stage_mu_ before mu_) so no new
  // frame can slip in between the discard and the marker.
  std::unique_lock<std::mutex> stage_lock(stage_mu_);
  retire_cv_.wait(stage_lock, [this] { return !writer_busy_; });
  int64_t staged_dropped = 0;
  int64_t failed_acks = 0;
  if (!staging_.empty()) {
    for (StagedFrame& frame : staging_) {
      if (frame.ack != nullptr) {
        frame.ack->done = true;
        frame.ack->ok = false;
        ++failed_acks;
      }
    }
    staged_dropped = static_cast<int64_t>(staging_.size());
    retired_seq_ += staging_.size();
    staging_.clear();
    retire_cv_.notify_all();
  }
  std::lock_guard<std::mutex> lock(mu_);
  metrics_->group_staged_dropped.Add(staged_dropped);
  metrics_->group_commit_failed_acks.Add(failed_acks);
  // Restart replaces the medium: clear the sticky failure and physically
  // drop a torn tail so the marker (and everything after it) extends a
  // clean frame sequence.
  media_failed_ = false;
  RepairTailLocked();
  std::string frame;
  wal_format::AppendRecordFrame(MakeRecord(WalRecord::Kind::kCrash, -1),
                                &frame);
  WriteFrameLocked(frame);
}

bool WriteAheadLog::WaitDurable(const WalCommitHandle& handle) const {
  const std::shared_ptr<WalCommitHandle::AckState>& state = handle.state_;
  if (state == nullptr) return true;
  std::unique_lock<std::mutex> stage_lock(stage_mu_);
  if (!state->done) {
    metrics_->group_commit_stalls.Add();
    retire_cv_.wait(stage_lock, [&state] { return state->done; });
  }
  return state->ok;
}

std::shared_ptr<WalCommitHandle::AckState> WriteAheadLog::SubmitRecord(
    const WalRecord& record) {
  std::string frame;
  wal_format::AppendRecordFrame(record, &frame);
  std::shared_ptr<WalCommitHandle::AckState> ack;
  const bool is_commit = record.kind == WalRecord::Kind::kCommit;
  if (is_commit) ack = std::make_shared<WalCommitHandle::AckState>();
  {
    std::lock_guard<std::mutex> stage_lock(stage_mu_);
    if (group_enabled_) {
      staging_.push_back({std::move(frame), ack});
      ++staged_seq_;
      stage_cv_.notify_one();
      return ack;
    }
  }
  // Sync mode: the frame is a one-frame chunk written through under the
  // log mutex, paying the device flush inline per commit record — the
  // single-global-lock baseline that group commit exists to beat.
  bool ok = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ok = WriteFrameLocked(frame);
    if (ok && is_commit) DeviceFlushLocked();
  }
  if (ack != nullptr) {
    std::lock_guard<std::mutex> stage_lock(stage_mu_);
    ack->done = true;
    ack->ok = ok;
    retire_cv_.notify_all();
  }
  return ack;
}

void WriteAheadLog::EnableGroupCommit() {
  std::lock_guard<std::mutex> lifecycle_lock(writer_lifecycle_mu_);
  std::unique_lock<std::mutex> stage_lock(stage_mu_);
  if (group_enabled_) return;
  if (writer_.joinable()) {
    // A previously stopped writer: it has already cleared group_enabled_
    // on its way out (or is about to), so the join is immediate. Joined
    // outside stage_mu_ — the exiting thread takes that lock last.
    stage_lock.unlock();
    writer_.join();
    stage_lock.lock();
  }
  group_enabled_ = true;
  writer_stop_ = false;
  writer_ = std::thread([this] { WriterLoop(); });
}

void WriteAheadLog::DisableGroupCommit() { StopWriterThread(); }

void WriteAheadLog::StopWriterThread() {
  // Teardown paths converge here from several owners (driver scope exit,
  // engine shutdown, server-initiated teardown, the destructor), and they
  // are NOT guaranteed to serialize with each other — the lifecycle mutex
  // makes concurrent or repeated stops safe (a bare double join would be
  // UB). Loggers may race freely. When EnableGroupCommit was never called
  // (sync-mode runs, driver error paths) there is no thread to join and
  // this is a guarded no-op.
  std::lock_guard<std::mutex> lifecycle_lock(writer_lifecycle_mu_);
  {
    std::lock_guard<std::mutex> stage_lock(stage_mu_);
    if (!group_enabled_) return;
    writer_stop_ = true;
    stage_cv_.notify_all();
  }
  if (writer_.joinable()) writer_.join();
  std::lock_guard<std::mutex> stage_lock(stage_mu_);
  writer_stop_ = false;
  flush_hold_ = false;
}

void WriteAheadLog::Flush() {
  std::unique_lock<std::mutex> stage_lock(stage_mu_);
  if (!group_enabled_) return;
  // Note: blocks forever under HoldFlushesForTest(true) — release the hold
  // (or LogCrashMarker) first.
  const uint64_t target = staged_seq_;
  retire_cv_.wait(stage_lock, [this, target] { return retired_seq_ >= target; });
}

bool WriteAheadLog::group_commit_enabled() const {
  std::lock_guard<std::mutex> stage_lock(stage_mu_);
  return group_enabled_;
}

uint64_t WriteAheadLog::PipelineDepth() const {
  std::lock_guard<std::mutex> stage_lock(stage_mu_);
  return staged_seq_ - retired_seq_;
}

void WriteAheadLog::set_flush_us(int64_t us) {
  flush_us_.store(us, std::memory_order_relaxed);
}

void WriteAheadLog::SetObserver(TraceSink* sink) {
  observer_.store(sink, std::memory_order_release);
}

void WriteAheadLog::HoldFlushesForTest(bool hold) {
  std::lock_guard<std::mutex> stage_lock(stage_mu_);
  flush_hold_ = hold;
  if (!hold) stage_cv_.notify_all();
}

void WriteAheadLog::WriterLoop() {
  for (;;) {
    std::vector<StagedFrame> batch;
    {
      std::unique_lock<std::mutex> stage_lock(stage_mu_);
      stage_cv_.wait(stage_lock, [this] {
        return writer_stop_ || (!staging_.empty() && !flush_hold_);
      });
      if (staging_.empty() && writer_stop_) {
        // Flip the mode flag before exiting so no frame can be staged with
        // nobody left to flush it: the next SubmitRecord goes sync.
        group_enabled_ = false;
        return;
      }
      const size_t take = std::min(staging_.size(), kMaxBatchFrames);
      batch.assign(std::make_move_iterator(staging_.begin()),
                   std::make_move_iterator(staging_.begin() + take));
      staging_.erase(staging_.begin(),
                     staging_.begin() + static_cast<ptrdiff_t>(take));
      writer_busy_ = true;
    }
    // Flushing happens with no lock held but mu_ inside FlushBatch: batch
    // N+1 stages (stage_mu_) while batch N writes (mu_) — the pipeline.
    FlushBatch(std::move(batch));
  }
}

void WriteAheadLog::FlushBatch(std::vector<StagedFrame> batch) {
  // Pack the batch's frames into chunks of at most one segment each, so
  // the whole batch reaches the medium in as few writes as possible while
  // keeping the per-write failpoint semantics (a fault hits a chunk — and
  // may therefore tear or swallow many frames at once).
  struct Chunk {
    std::string bytes;
    std::vector<size_t> frame_ends;  ///< Offset just past each frame.
  };
  std::vector<Chunk> chunks;
  int64_t commits = 0;
  std::vector<std::shared_ptr<WalCommitHandle::AckState>> acks;
  for (StagedFrame& frame : batch) {
    if (frame.ack != nullptr) {
      acks.push_back(std::move(frame.ack));
      ++commits;
    }
    if (chunks.empty() ||
        (!chunks.back().bytes.empty() &&
         chunks.back().bytes.size() + frame.bytes.size() > segment_bytes_)) {
      chunks.emplace_back();
    }
    Chunk& chunk = chunks.back();
    chunk.bytes.append(frame.bytes);
    chunk.frame_ends.push_back(chunk.bytes.size());
  }

  // All-or-nothing acks: a media fault on ANY chunk fails every commit ack
  // in the batch — no partial-batch success. Frames that reached the
  // medium before the fault stay in the image (durable but unacked, the
  // standard crash ambiguity); recovery treats them like any other record.
  bool ok = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Chunk& chunk : chunks) {
      // A batch counts the frames a faulting write failed to land as
      // dropped records.
      if (!AppendChunkLocked(chunk.bytes, chunk.frame_ends,
                             &stats_.dropped_records)) {
        ok = false;
      }
    }
    if (ok) DeviceFlushLocked();
    metrics_->group_commit_batches.Add();
    metrics_->group_commit_frames.Add(static_cast<int64_t>(batch.size()));
    metrics_->group_commit_commits.Add(commits);
    if (!ok) metrics_->group_commit_failed_acks.Add(commits);
  }
  if (TraceSink* sink = observer_.load(std::memory_order_acquire)) {
    TraceEvent event;
    event.kind = TraceEvent::Kind::kWalBatchFlush;
    event.protocol = "wal";
    event.tx = ok ? 1 : 0;
    event.other = static_cast<int>(commits);
    event.value = static_cast<Value>(batch.size());
    sink->OnEvent(event);
  }
  RetireFrames(batch.size(), std::move(acks), ok);
}

void WriteAheadLog::RetireFrames(
    size_t n, std::vector<std::shared_ptr<WalCommitHandle::AckState>> acks,
    bool ok) {
  std::lock_guard<std::mutex> stage_lock(stage_mu_);
  for (const std::shared_ptr<WalCommitHandle::AckState>& ack : acks) {
    ack->done = true;
    ack->ok = ok;
  }
  retired_seq_ += n;
  writer_busy_ = false;
  retire_cv_.notify_all();
}

void WriteAheadLog::DeviceFlushLocked() {
  metrics_->wal_device_flushes.Add();
  const int64_t us = flush_us_.load(std::memory_order_relaxed);
  if (us <= 0) return;
  // Busy-wait: models the storage barrier's latency deterministically —
  // sleep_for would let the scheduler batch "independent" flushes.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  while (std::chrono::steady_clock::now() < until) {
  }
}

bool WriteAheadLog::AppendChunkLocked(const std::string& chunk,
                                      std::span<const size_t> frame_ends,
                                      int64_t* lost_to) {
  const int64_t frames = static_cast<int64_t>(frame_ends.size());
  if (media_failed_) {
    stats_.dropped_records += frames;
    return false;
  }
  FailpointRegistry& registry = FailpointRegistry::Global();
  if (NONSERIAL_FAILPOINT("wal.write_error")) {
    ++stats_.write_errors;
    if (lost_to != nullptr) *lost_to += frames;
    media_failed_ = true;
    return false;
  }
  if (segments_.empty() || segments_.back().lost ||
      (!segments_.back().bytes.empty() &&
       segments_.back().bytes.size() + chunk.size() > segment_bytes_)) {
    SealActiveSegmentLocked();
    Segment fresh;
    fresh.seq = next_segment_seq_++;
    segments_.push_back(std::move(fresh));
  }
  Segment& seg = segments_.back();
  const size_t start = seg.bytes.size();
  size_t written = chunk.size();
  int64_t landed = frames;
  const bool torn = NONSERIAL_FAILPOINT("wal.torn_tail");
  if (torn) {
    // A strict nonzero prefix of the chunk reaches the medium, then the
    // device dies — a torn write can truncate most of a batch. Frames that
    // landed whole in the prefix ARE durable; the partial one is the torn
    // tail recovery truncates.
    written =
        1 + static_cast<size_t>(registry.DrawBits() % (chunk.size() - 1));
    landed = std::count_if(frame_ends.begin(), frame_ends.end(),
                           [written](size_t end) { return end <= written; });
    ++stats_.torn_writes;
    media_failed_ = true;
    if (lost_to != nullptr) *lost_to += frames - landed;
  }
  seg.bytes.append(chunk.data(), written);
  stats_.bytes += static_cast<int64_t>(written);
  seg.frames += landed;
  stats_.records += landed;
  stats_.total_records += landed;
  if (torn) return false;
  if (NONSERIAL_FAILPOINT("wal.bit_flip")) {
    // Silent corruption: the write "succeeds" (its commits still ack) but
    // one byte lands wrong — recovery's scan is the only detector. Offset
    // and bit come from the deterministic fault stream.
    const uint64_t bits = registry.DrawBits();
    const size_t offset = start + static_cast<size_t>(bits % chunk.size());
    seg.bytes[offset] ^= static_cast<char>(1u << ((bits >> 32) % 8));
    ++stats_.bit_flips;
  }
  return true;
}

bool WriteAheadLog::WriteFrameLocked(const std::string& frame) {
  const size_t end = frame.size();
  return AppendChunkLocked(frame, std::span<const size_t>(&end, 1),
                           /*lost_to=*/nullptr);
}

void WriteAheadLog::SealActiveSegmentLocked() {
  if (segments_.empty()) return;
  Segment& seg = segments_.back();
  if (seg.lost || seg.bytes.empty()) return;
  if (NONSERIAL_FAILPOINT("wal.segment_lost")) {
    // The sealed segment's data vanishes; the tombstone (seq + lost flag)
    // survives so recovery can tell "never written" from "written and lost".
    stats_.bytes -= static_cast<int64_t>(seg.bytes.size());
    seg.bytes.clear();
    seg.bytes.shrink_to_fit();
    seg.lost = true;
    ++stats_.lost_segments;
  }
}

void WriteAheadLog::RepairTailLocked() {
  while (!segments_.empty()) {
    Segment& seg = segments_.back();
    if (seg.lost) return;  // Tombstones stay for recovery to report.
    size_t pos = 0;
    int64_t records = 0;
    while (pos < seg.bytes.size()) {
      DecodedFrame f = DecodeFrame(seg.bytes.data() + pos, seg.bytes.size() - pos);
      if (f.status != FrameStatus::kOk) break;
      if (!f.is_checkpoint) ++records;
      pos += f.frame_bytes;
    }
    if (pos == seg.bytes.size()) return;  // Clean tail.
    // Mid-segment corruption with valid frames after it is NOT repaired —
    // silently truncating it would absorb corruption; recovery must see and
    // report it.
    if (AnyValidFrameFrom(seg.bytes, pos + 1)) return;
    stats_.bytes -= static_cast<int64_t>(seg.bytes.size() - pos);
    stats_.records -= seg.frames - records;
    seg.bytes.resize(pos);
    seg.frames = records;
    if (seg.bytes.empty() && segments_.size() > 1) {
      segments_.pop_back();
      continue;
    }
    return;
  }
}

size_t WriteAheadLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<size_t>(stats_.records);
}

WalStats WriteAheadLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WalStats s = stats_;
  s.segments = static_cast<int64_t>(segments_.size());
  s.media_failed = media_failed_;
  return s;
}

std::vector<WalRecord> WriteAheadLog::Snapshot() const { return TailSince(0); }

std::vector<WalRecord> WriteAheadLog::TailSince(size_t index) const {
  // Copy only the segments that can contain records >= index; whole leading
  // segments are skipped via their record counts without decoding a byte.
  std::vector<std::string> bytes;
  size_t skip_in_first = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    size_t before = 0;
    for (const Segment& seg : segments_) {
      if (seg.lost) {
        before += static_cast<size_t>(seg.frames);
        continue;
      }
      if (bytes.empty() &&
          before + static_cast<size_t>(seg.frames) <= index) {
        before += static_cast<size_t>(seg.frames);
        continue;
      }
      if (bytes.empty()) skip_in_first = index > before ? index - before : 0;
      bytes.push_back(seg.bytes);
    }
  }
  std::vector<WalRecord> out;
  size_t to_skip = skip_in_first;
  for (const std::string& segment : bytes) {
    size_t pos = 0;
    while (pos < segment.size()) {
      DecodedFrame f = DecodeFrame(segment.data() + pos, segment.size() - pos);
      if (f.status != FrameStatus::kOk) return out;  // Defensive stop.
      pos += f.frame_bytes;
      if (f.is_checkpoint) continue;
      if (to_skip > 0) {
        --to_skip;
        continue;
      }
      out.push_back(std::move(f.record));
    }
  }
  return out;
}

std::string WriteAheadLog::SerializedImage() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string image;
  for (const Segment& seg : segments_) {
    wal_format::AppendSegmentHeader(seg.seq, seg.lost, &image);
    if (!seg.lost) image.append(seg.bytes);
  }
  return image;
}

std::unique_ptr<WriteAheadLog> WriteAheadLog::FromImage(
    const std::string& image, ValueVector initial, size_t segment_bytes) {
  auto wal = std::make_unique<WriteAheadLog>(std::move(initial), segment_bytes);
  static const std::string kMagic = [] {
    std::string m;
    for (int i = 0; i < 8; ++i) {
      m.push_back(
          static_cast<char>((wal_format::kSegmentMagic >> (8 * i)) & 0xFF));
    }
    return m;
  }();
  std::vector<size_t> bounds;
  for (size_t pos = image.find(kMagic); pos != std::string::npos;
       pos = image.find(kMagic, pos + 1)) {
    bounds.push_back(pos);
  }
  auto add_garbage = [&wal](std::string chunk) {
    // Bytes outside any decodable segment structure (header cut mid-way, or
    // a header destroyed by corruption): keep them as-is so recovery sees
    // and classifies the damage instead of it disappearing in the parse.
    if (!wal->segments_.empty()) {
      wal->segments_.back().bytes.append(chunk);
    } else if (!chunk.empty()) {
      Segment seg;
      seg.seq = 0;
      seg.bytes = std::move(chunk);
      wal->segments_.push_back(std::move(seg));
    }
  };
  if (bounds.empty()) {
    add_garbage(image);
  } else {
    if (bounds[0] > 0) add_garbage(image.substr(0, bounds[0]));
    for (size_t i = 0; i < bounds.size(); ++i) {
      size_t b = bounds[i];
      wal_format::SegmentHeader header;
      if (!wal_format::DecodeSegmentHeader(image.data() + b, image.size() - b,
                                           &header)) {
        add_garbage(image.substr(b));  // Truncated header at the tail.
        break;
      }
      size_t end = i + 1 < bounds.size() ? bounds[i + 1] : image.size();
      Segment seg;
      seg.seq = header.seq;
      seg.lost = header.lost;
      if (!seg.lost) {
        seg.bytes = image.substr(b + header.bytes, end - b - header.bytes);
      }
      wal->segments_.push_back(std::move(seg));
    }
  }
  // Rebuild counters from what actually decodes (the image may be damaged).
  for (Segment& seg : wal->segments_) {
    wal->next_segment_seq_ = std::max(wal->next_segment_seq_, seg.seq + 1);
    wal->stats_.bytes += static_cast<int64_t>(seg.bytes.size());
    size_t pos = 0;
    while (pos < seg.bytes.size()) {
      DecodedFrame f = DecodeFrame(seg.bytes.data() + pos, seg.bytes.size() - pos);
      if (f.status != FrameStatus::kOk) break;
      if (!f.is_checkpoint) ++seg.frames;
      pos += f.frame_bytes;
    }
    wal->stats_.records += seg.frames;
    wal->stats_.total_records += seg.frames;
  }
  return wal;
}

RecoveryResult WriteAheadLog::Recover(size_t prefix_len) const {
  RecoveryOptions options;
  options.prefix_records = prefix_len;
  return Recover(options);
}

RecoveryResult WriteAheadLog::Recover(const RecoveryOptions& options) const {
  auto start = std::chrono::steady_clock::now();
  // Copy the image under the lock, scan and replay outside it.
  std::vector<Segment> owned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    owned = segments_;
  }
  ScanResult scan = ScanSegments(owned);

  RecoveryResult result;
  result.frames_scanned = scan.frames_scanned;
  result.checkpoint_restored = scan.has_checkpoint;
  result.corruption_detected = scan.valid_after_bad || scan.lost_segment;
  if (scan.bad && !result.corruption_detected) {
    result.truncated_tail = true;
    result.frames_truncated = 1;  // The one incomplete/garbled tail frame.
  }
  result.segments = std::move(scan.diags);

  const size_t replayed =
      std::min(options.prefix_records, scan.records.size());
  result.image_records = static_cast<int64_t>(scan.records.size());
  result.replayed_records = static_cast<int64_t>(replayed);
  ReplayRecords(scan.records, replayed, initial_,
                scan.has_checkpoint ? &scan.checkpoint : nullptr, &result);

  if (result.corruption_detected) {
    if (options.best_effort) {
      result.salvaged = true;
      result.frames_salvaged = static_cast<int64_t>(replayed);
    } else {
      result.status = Status::Internal(
          "mid-log corruption: valid data exists past an undecodable point "
          "(or a segment is lost); only the prefix before the damage was "
          "replayed — see RecoveryResult::segments, or recover with "
          "best_effort to salvage");
    }
  }
  result.recovery_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  return result;
}

Status WriteAheadLog::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  if (media_failed_) {
    return Status::FailedPrecondition(
        "checkpoint refused: the medium has a sticky write failure");
  }
  return CompactLocked(nullptr, {});
}

int64_t WriteAheadLog::CompactTo(const RecoveryResult& recovered) {
  // The recovered store is walked before mu_ is taken: the lock order is
  // store → WAL (VersionStore::Append logs under the store mutex).
  WalCheckpoint recovered_checkpoint = CheckpointOf(recovered, initial_.size());
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t reclaimed = static_cast<int64_t>(segments_.size());
  CompactLocked(&recovered, std::move(recovered_checkpoint));
  // The recovered state is the new durable truth; a crash-recovery
  // compaction also stands in for the medium swap a restart performs.
  media_failed_ = false;
  return reclaimed;
}

Status WriteAheadLog::CompactLocked(const RecoveryResult* recovered,
                                    WalCheckpoint recovered_checkpoint) {
  // One consistent view: the live image, scanned under the lock, so nothing
  // the checkpoint does not absorb is compacted away.
  ScanResult scan = ScanSegments(segments_);
  const std::vector<WalRecord>& records = scan.records;
  const bool damaged = scan.bad || scan.lost_segment;
  if (damaged && recovered == nullptr) {
    // Checkpointing a damaged log would launder the corruption into a
    // "clean" checkpoint; refuse and leave the image for Recover to report.
    return Status::Internal("checkpoint refused: log image is damaged");
  }

  // The image splits at the recovery pass's boundaries: its state covers
  // records [0, replayed); [replayed, image) were cut by its crash-point
  // simulation and stay cut; [image, end) landed after its scan (a live
  // committer racing the compaction). A live checkpoint covers it all.
  size_t replayed = records.size();
  size_t image = records.size();
  if (recovered != nullptr) {
    auto clamp = [&records](int64_t n) {
      return std::min(records.size(),
                      static_cast<size_t>(std::max<int64_t>(n, 0)));
    };
    replayed = clamp(recovered->replayed_records);
    image = std::max(replayed, clamp(recovered->image_records));
  }

  // Writers open at `replayed` are carried forward: all of them for a live
  // checkpoint; for CompactTo, those with a record in the suffix, whose
  // kCommit must commit the writer's full write set. For the rest, the
  // recovered state is the truth: their in-flight work dies with the
  // compacted history. A damaged image carries nothing: the suffix past
  // the damage is discarded with the history, and its writers belong to an
  // epoch the damage ended.
  std::set<int> suffix_writers;
  for (size_t i = image; i < records.size(); ++i) {
    if (records[i].kind != WalRecord::Kind::kCrash) {
      suffix_writers.insert(records[i].writer);
    }
  }
  auto carried = [&](int writer) {
    return !damaged &&
           (recovered == nullptr || suffix_writers.contains(writer));
  };
  FatePass pass(records);
  pass.Walk(0, replayed);
  bool carries = false;
  for (const auto& [writer, open] : pass.open()) carries |= carried(writer);
  // The cut: a carried writer's appends precede versions other writers
  // committed after them, so the checkpoint stops at the last point where
  // no writer was open — at or before the first carried record — and every
  // later record is carried in log order. Chains keep their log order.
  const size_t cut = carries ? pass.last_quiet() : replayed;
  pass.Kill([&](int writer) { return !carried(writer); });
  if (!damaged) pass.Walk(image, records.size());

  WalCheckpoint checkpoint;
  if (recovered != nullptr && cut == replayed) {
    checkpoint = std::move(recovered_checkpoint);
  } else {
    RecoveryResult state;
    ReplayRecords(records, cut, initial_,
                  scan.has_checkpoint ? &scan.checkpoint : nullptr, &state);
    checkpoint = CheckpointOf(std::move(state), initial_.size());
  }

  // Dead-record elimination: appends, payloads and tokens a rollback, crash
  // marker or newer record killed are dead forever, and once they drop the
  // kRollback/kCrash records fence nothing and drop too (this keeps a
  // post-crash compaction at zero records). Commits always stay.
  std::string frames;
  wal_format::AppendCheckpointFrame(checkpoint, &frames);
  int64_t kept = 0;
  auto carry = [&](size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      if (pass.fate(i) == FatePass::Fate::kDead) continue;
      wal_format::AppendRecordFrame(records[i], &frames);
      ++kept;
    }
  };
  carry(cut, replayed);
  carry(image, records.size());
  ResetSegmentsLocked(std::move(frames), kept);
  return Status::OK();
}

void WriteAheadLog::ResetSegmentsLocked(std::string frames,
                                        int64_t record_count) {
  int64_t reclaimed = static_cast<int64_t>(segments_.size());
  segments_.clear();
  Segment seg;
  seg.seq = next_segment_seq_++;
  seg.frames = record_count;
  seg.bytes = std::move(frames);
  stats_.bytes = static_cast<int64_t>(seg.bytes.size());
  stats_.records = record_count;
  segments_.push_back(std::move(seg));
  ++stats_.checkpoints;
  ++stats_.compactions;
  stats_.segments_reclaimed += reclaimed;
}

}  // namespace nonserial
