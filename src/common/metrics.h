#ifndef NONSERIAL_COMMON_METRICS_H_
#define NONSERIAL_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <variant>

namespace nonserial {

/// A monotonically increasing event counter. Thread-safe; increments use
/// relaxed atomics (counters are statistics, not synchronization).
class Counter {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A histogram over non-negative integer samples with power-of-two buckets:
/// bucket b counts samples v with 2^(b-1) <= v < 2^b (bucket 0 counts v==0).
/// Thread-safe via relaxed atomics; totals are maintained so mean() needs no
/// bucket walk.
class Histogram {
 public:
  static constexpr int kNumBuckets = 33;

  void Record(int64_t value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  double mean() const;

  /// Upper bound of the bucket containing the p-quantile (p in [0, 1]),
  /// clamped to max().
  int64_t ApproxPercentile(double p) const;

  /// Compact one-line rendering: "n=… mean=… p50≤… p99≤… max=…".
  std::string ToString() const;

  void Reset();

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

/// The stats layer shared by the protocol engine, the lock manager, and the
/// drivers. One instance per run; every member is individually thread-safe,
/// so components update it concurrently without coordination. Each event is
/// counted once, by the layer where it happens; MetricTable() names every
/// member and drives the renderings and Reset().
struct ProtocolMetrics {
  // Lock-manager outcomes (Figure 3 matrix results).
  Counter lock_grants;      ///< Requests answered "true" immediately.
  Counter lock_blocks;      ///< Rv/R requests refused by an active W.
  Counter lock_reevals;     ///< W grants that triggered re-evaluation.

  // Figure 4 re-evaluation routine.
  Counter reevals;          ///< Routine invocations (one per conflicted W).
  Counter reassigns;        ///< Readers re-assigned to the new version.

  // Aborts by cause.
  Counter po_aborts;        ///< Partial-order invalidation (read too early).
  Counter cascade_aborts;   ///< Readers of rolled-back versions.
  Counter output_aborts;    ///< Output condition failed at commit.
  Counter injected_aborts;  ///< Fault-injection (chaos) forced aborts.
  Counter deadline_aborts;  ///< Blocked-time budget exhausted (driver).

  // Validation phase.
  Counter validations;        ///< Successful version assignments.
  Counter validation_fails;   ///< Searches that found no assignment.
  Counter validation_rescans; ///< Optimistic searches retried because the
                              ///< store changed while searching unlocked.
  Counter validation_starved; ///< Rescan cap exhausted; the search fell
                              ///< back to running under the engine lock.
  Histogram search_nodes;     ///< Assignment-search nodes per validation.

  // Incremental verification (eval cache + delta revalidation).
  Counter cache_hits;           ///< Conjunct evaluations answered from cache.
  Counter cache_misses;         ///< Conjunct evaluations computed + inserted.
  Counter cache_invalidations;  ///< Cache entries dropped when a shard
                                ///< overflowed its entry bound.
  Counter delta_rescans;        ///< Rescans solved as delta-revalidations
                                ///< (unchanged entities pinned to their
                                ///< previous versions).
  Counter delta_fallbacks;      ///< Delta-revalidations that found nothing
                                ///< under the pins and re-ran from scratch.

  // Driver-level waiting.
  Counter commit_waits;     ///< Commit attempts parked on a predecessor.
  Histogram wait_micros;    ///< Wall-clock µs per blocked episode (sessions
                            ///< parked on the signal hub; the deterministic
                            ///< scheduler never parks one).

  // Per-transaction phase spans, in wall-clock µs (parallel driver; the
  // commit wait also from Session::Commit).
  Histogram span_validate;     ///< Begin until the attempt is admitted.
  Histogram span_execute;      ///< Admission until the last read/write.
  Histogram span_commit_wait;  ///< Blocked portion of termination.
  Histogram span_terminate;    ///< First Commit call until resolution.

  // Fault-injection & recovery (chaos runs).
  Counter crash_restarts;   ///< Simulated crash-kill + WAL recovery cycles.
  Counter recovered_txs;    ///< Committed transactions restored from WAL.
  Counter recovery_frames_scanned;    ///< Valid log frames decoded.
  Counter recovery_frames_truncated;  ///< Torn/bad-CRC tail frames dropped.
  Counter recovery_frames_salvaged;   ///< Records replayed despite mid-log
                                      ///< corruption (best-effort mode).
  Counter checkpoint_compactions;     ///< Checkpoint installs that reclaimed
                                      ///< earlier log segments.
  Histogram recovery_micros;          ///< Wall-clock µs per recovery pass.

  // Group-commit pipeline (durable runs; counted by the write-ahead log).
  Counter group_commit_batches;   ///< Staging batches flushed by the writer.
  Counter group_commit_frames;    ///< Frames flushed via batches.
  Counter group_commit_commits;   ///< Commit acks resolved by batch flushes.
  Counter group_commit_stalls;    ///< Commit acks that blocked on a flush
                                  ///< epoch (WaitDurable actually waited).
  Counter group_commit_failed_acks;  ///< Acks failed by a mid-batch media
                                     ///< fault or a crash discard.
  Counter group_staged_dropped;   ///< Staged frames lost to crash restarts.
  Counter wal_device_flushes;     ///< Simulated device flushes paid (per
                                  ///< commit sync, per batch grouped).

  // Engine-as-a-service front end (src/server, src/engine sessions).
  Counter server_accepted;        ///< Transactions admitted past the
                                  ///< in-flight budget (session Begins that
                                  ///< reached the protocol).
  Counter server_shed;            ///< Requests answered retry-later: the
                                  ///< in-flight budget, the WAL pipeline
                                  ///< backlog bound, or a full per-session
                                  ///< queue refused them.
  Counter server_requests;        ///< Wire request frames processed.
  Counter server_sessions_opened; ///< Sessions ever opened (engine-level).
  Counter server_sessions_closed; ///< Sessions closed; opened - closed =
                                  ///< active_sessions in reports.
  Counter server_wire_errors;     ///< Malformed/corrupt frames answered
                                  ///< with an error (connection dropped).
  Histogram server_queue_depth;   ///< Per-session request-queue depth
                                  ///< sampled at every enqueue.
  Histogram server_inflight;      ///< Admitted in-flight transactions
                                  ///< sampled at every admission.
  Counter server_retries;         ///< COMMIT resends answered from the
                                  ///< idempotency-token table (exactly-once
                                  ///< replays, not re-executions).
  Counter server_lease_expired;   ///< Idle sessions reclaimed by the
                                  ///< server's lease timer (in-flight
                                  ///< transaction rolled back, slot freed).
  Counter engine_retired_tx;      ///< Terminated transactions retired from
                                  ///< the controller's live scan set.

  /// cache_hits over all cache probes, in [0, 1].
  double cache_hit_rate() const;
  /// Sessions opened and not yet closed.
  int64_t active_sessions() const;

  /// Multi-line human-readable dump: one "group: key=value ..." line per
  /// group with a nonzero counter, one line per histogram with samples.
  std::string Summary() const;

  /// The full structure as a pretty-printed JSON object — the `metrics`
  /// section of the run-report schema (see common/report.h, which also
  /// provides the DOM-level MetricsJson()).
  std::string ToJson() const;

  void Reset();
};

/// One row of MetricTable(): a ProtocolMetrics member, or a value computed
/// from members, and the group and key it has in the run report.
struct MetricRow {
  using Field = std::variant<Counter ProtocolMetrics::*,
                             Histogram ProtocolMetrics::*,
                             int64_t (ProtocolMetrics::*)() const,
                             double (ProtocolMetrics::*)() const>;
  const char* group;  ///< Report object holding the key; "" = top level.
  const char* key;
  Field field;
};

/// Every ProtocolMetrics member exactly once, plus the computed rows, in
/// report order. MetricsJson (common/report.h), Summary and Reset loop over
/// it, so a new member needs one declaration and one row.
std::span<const MetricRow> MetricTable();

/// The ProtocolMetrics a component counts into: the caller's when one is
/// attached, else one the component owns. Never null, so counting sites
/// need no check. The pointer is atomic, so counting threads may race an
/// Attach; an attached sink must outlive its attachment.
class MetricsSink {
 public:
  explicit MetricsSink(ProtocolMetrics* attached = nullptr) {
    Attach(attached);
  }

  /// Counts into `attached` from now on; nullptr returns to the owned sink.
  /// Not safe against a concurrent Attach.
  void Attach(ProtocolMetrics* attached) {
    if (attached == nullptr) {
      if (owned_ == nullptr) owned_ = std::make_unique<ProtocolMetrics>();
      attached = owned_.get();
    }
    sink_.store(attached, std::memory_order_release);
  }

  ProtocolMetrics* get() const { return sink_.load(std::memory_order_acquire); }
  ProtocolMetrics* operator->() const { return get(); }
  /// True while counting into the owned sink.
  bool owned() const { return owned_ != nullptr && get() == owned_.get(); }

 private:
  std::unique_ptr<ProtocolMetrics> owned_;
  std::atomic<ProtocolMetrics*> sink_{nullptr};
};

}  // namespace nonserial

#endif  // NONSERIAL_COMMON_METRICS_H_
