#include "common/metrics.h"

#include <algorithm>
#include <sstream>

namespace nonserial {

namespace {

int BucketOf(int64_t value) {
  if (value <= 0) return 0;
  int bucket = 1;
  while (bucket < Histogram::kNumBuckets - 1 &&
         value >= (int64_t{1} << bucket)) {
    ++bucket;
  }
  return bucket;
}

}  // namespace

void Histogram::Record(int64_t value) {
  if (value < 0) value = 0;
  buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  int64_t seen = max_.load(std::memory_order_relaxed);
  while (value > seen &&
         !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

double Histogram::mean() const {
  int64_t n = count();
  return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
}

int64_t Histogram::ApproxPercentile(double p) const {
  int64_t n = count();
  if (n == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  int64_t rank = static_cast<int64_t>(p * static_cast<double>(n - 1)) + 1;
  int64_t seen = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) {
      if (b == 0) return 0;
      // The top bucket is open-ended: its upper bound is the largest sample.
      return b == kNumBuckets - 1 ? max() : (int64_t{1} << b) - 1;
    }
  }
  return max();
}

std::string Histogram::ToString() const {
  std::ostringstream os;
  os << "n=" << count() << " mean=" << mean() << " p50<=" << ApproxPercentile(0.5)
     << " p99<=" << ApproxPercentile(0.99) << " max=" << max();
  return os.str();
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::string ProtocolMetrics::Summary() const {
  std::ostringstream os;
  os << "locks: grants=" << lock_grants.value()
     << " blocks=" << lock_blocks.value()
     << " re-evals=" << lock_reevals.value() << "\n";
  os << "figure-4: routines=" << reevals.value()
     << " re-assigns=" << reassigns.value() << "\n";
  os << "aborts: partial-order=" << po_aborts.value()
     << " cascade=" << cascade_aborts.value()
     << " output=" << output_aborts.value();
  if (injected_aborts.value() > 0) {
    os << " injected=" << injected_aborts.value();
  }
  if (deadline_aborts.value() > 0) {
    os << " deadline=" << deadline_aborts.value();
  }
  os << "\n";
  os << "validation: ok=" << validations.value()
     << " fail=" << validation_fails.value()
     << " rescans=" << validation_rescans.value()
     << " starved=" << validation_starved.value() << "\n";
  if (cache_hits.value() + cache_misses.value() > 0 ||
      delta_rescans.value() > 0) {
    int64_t probes = cache_hits.value() + cache_misses.value();
    os << "eval cache: hits=" << cache_hits.value()
       << " misses=" << cache_misses.value()
       << " invalidations=" << cache_invalidations.value() << " hit-rate="
       << (probes == 0 ? 0.0
                       : static_cast<double>(cache_hits.value()) /
                             static_cast<double>(probes))
       << " delta-rescans=" << delta_rescans.value()
       << " delta-fallbacks=" << delta_fallbacks.value() << "\n";
  }
  if (crash_restarts.value() > 0) {
    os << "recovery: crash-restarts=" << crash_restarts.value()
       << " recovered-txs=" << recovered_txs.value()
       << " frames-scanned=" << recovery_frames_scanned.value()
       << " frames-truncated=" << recovery_frames_truncated.value()
       << " frames-salvaged=" << recovery_frames_salvaged.value()
       << " compactions=" << checkpoint_compactions.value() << "\n";
    if (recovery_micros.count() > 0) {
      os << "recovery time (us): " << recovery_micros.ToString() << "\n";
    }
  }
  if (group_commit_batches.value() > 0 || wal_device_flushes.value() > 0) {
    os << "group commit: batches=" << group_commit_batches.value()
       << " frames=" << group_commit_frames.value()
       << " commits=" << group_commit_commits.value()
       << " stalls=" << group_commit_stalls.value()
       << " failed-acks=" << group_commit_failed_acks.value()
       << " staged-dropped=" << group_staged_dropped.value()
       << " device-flushes=" << wal_device_flushes.value() << "\n";
  }
  if (server_sessions_opened.value() > 0 || server_shed.value() > 0) {
    os << "server: accepted=" << server_accepted.value()
       << " shed=" << server_shed.value()
       << " requests=" << server_requests.value()
       << " sessions-opened=" << server_sessions_opened.value()
       << " sessions-closed=" << server_sessions_closed.value()
       << " wire-errors=" << server_wire_errors.value()
       << " retries=" << server_retries.value()
       << " lease-expired=" << server_lease_expired.value()
       << " retired-tx=" << engine_retired_tx.value() << "\n";
    if (server_queue_depth.count() > 0) {
      os << "server queue depth: " << server_queue_depth.ToString() << "\n";
    }
    if (server_inflight.count() > 0) {
      os << "server in-flight: " << server_inflight.ToString() << "\n";
    }
  }
  if (search_nodes.count() > 0) {
    os << "search nodes: " << search_nodes.ToString() << "\n";
  }
  os << "commit waits: " << commit_waits.value() << "\n";
  if (wait_micros.count() > 0) {
    os << "blocked episodes (us): " << wait_micros.ToString() << "\n";
  }
  if (span_validate.count() > 0) {
    os << "span validate: " << span_validate.ToString() << "\n";
  }
  if (span_execute.count() > 0) {
    os << "span execute: " << span_execute.ToString() << "\n";
  }
  if (span_commit_wait.count() > 0) {
    os << "span commit-wait: " << span_commit_wait.ToString() << "\n";
  }
  if (span_terminate.count() > 0) {
    os << "span terminate: " << span_terminate.ToString() << "\n";
  }
  return os.str();
}

void ProtocolMetrics::Reset() {
  lock_grants.Reset();
  lock_blocks.Reset();
  lock_reevals.Reset();
  reevals.Reset();
  reassigns.Reset();
  po_aborts.Reset();
  cascade_aborts.Reset();
  output_aborts.Reset();
  injected_aborts.Reset();
  deadline_aborts.Reset();
  validations.Reset();
  validation_fails.Reset();
  validation_rescans.Reset();
  validation_starved.Reset();
  search_nodes.Reset();
  cache_hits.Reset();
  cache_misses.Reset();
  cache_invalidations.Reset();
  delta_rescans.Reset();
  delta_fallbacks.Reset();
  commit_waits.Reset();
  wait_micros.Reset();
  span_validate.Reset();
  span_execute.Reset();
  span_commit_wait.Reset();
  span_terminate.Reset();
  crash_restarts.Reset();
  recovered_txs.Reset();
  recovery_frames_scanned.Reset();
  recovery_frames_truncated.Reset();
  recovery_frames_salvaged.Reset();
  checkpoint_compactions.Reset();
  recovery_micros.Reset();
  group_commit_batches.Reset();
  group_commit_frames.Reset();
  group_commit_commits.Reset();
  group_commit_stalls.Reset();
  group_commit_failed_acks.Reset();
  group_staged_dropped.Reset();
  wal_device_flushes.Reset();
  server_accepted.Reset();
  server_shed.Reset();
  server_requests.Reset();
  server_sessions_opened.Reset();
  server_sessions_closed.Reset();
  server_wire_errors.Reset();
  server_queue_depth.Reset();
  server_inflight.Reset();
  server_retries.Reset();
  server_lease_expired.Reset();
  engine_retired_tx.Reset();
}

}  // namespace nonserial
