#include "common/metrics.h"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "common/strings.h"

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
      // No sample exceeds max(); the top bucket is open-ended besides.
      return b == kNumBuckets - 1 ? max()
                                  : std::min((int64_t{1} << b) - 1, max());
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

namespace {

using M = ProtocolMetrics;

constexpr MetricRow kMetricTable[] = {
    {"locks", "grants", &M::lock_grants},
    {"locks", "blocks", &M::lock_blocks},
    {"locks", "reevals", &M::lock_reevals},
    {"figure4", "reevals", &M::reevals},
    {"figure4", "reassigns", &M::reassigns},
    {"aborts", "partial_order", &M::po_aborts},
    {"aborts", "cascade", &M::cascade_aborts},
    {"aborts", "output", &M::output_aborts},
    {"aborts", "injected", &M::injected_aborts},
    {"aborts", "deadline", &M::deadline_aborts},
    {"validation", "ok", &M::validations},
    {"validation", "fail", &M::validation_fails},
    {"validation", "rescans", &M::validation_rescans},
    {"validation", "starved", &M::validation_starved},
    {"validation", "search_nodes", &M::search_nodes},
    {"eval_cache", "hits", &M::cache_hits},
    {"eval_cache", "misses", &M::cache_misses},
    {"eval_cache", "invalidations", &M::cache_invalidations},
    {"eval_cache", "hit_rate", &M::cache_hit_rate},
    {"eval_cache", "delta_rescans", &M::delta_rescans},
    {"eval_cache", "delta_fallbacks", &M::delta_fallbacks},
    {"", "commit_waits", &M::commit_waits},
    {"", "wait_micros", &M::wait_micros},
    {"spans", "validate", &M::span_validate},
    {"spans", "execute", &M::span_execute},
    {"spans", "commit_wait", &M::span_commit_wait},
    {"spans", "terminate", &M::span_terminate},
    {"recovery", "crash_restarts", &M::crash_restarts},
    {"recovery", "recovered_txs", &M::recovered_txs},
    {"recovery", "frames_scanned", &M::recovery_frames_scanned},
    {"recovery", "frames_truncated", &M::recovery_frames_truncated},
    {"recovery", "frames_salvaged", &M::recovery_frames_salvaged},
    {"recovery", "checkpoint_compactions", &M::checkpoint_compactions},
    {"recovery", "recovery_micros", &M::recovery_micros},
    {"group_commit", "batches", &M::group_commit_batches},
    {"group_commit", "frames", &M::group_commit_frames},
    {"group_commit", "commits", &M::group_commit_commits},
    {"group_commit", "stalls", &M::group_commit_stalls},
    {"group_commit", "failed_acks", &M::group_commit_failed_acks},
    {"group_commit", "staged_dropped", &M::group_staged_dropped},
    {"group_commit", "device_flushes", &M::wal_device_flushes},
    {"server", "accepted", &M::server_accepted},
    {"server", "shed", &M::server_shed},
    {"server", "requests", &M::server_requests},
    {"server", "sessions_opened", &M::server_sessions_opened},
    {"server", "sessions_closed", &M::server_sessions_closed},
    {"server", "active_sessions", &M::active_sessions},
    {"server", "wire_errors", &M::server_wire_errors},
    {"server", "queue_depth", &M::server_queue_depth},
    {"server", "inflight", &M::server_inflight},
    {"server", "retries", &M::server_retries},
    {"server", "lease_expired", &M::server_lease_expired},
    {"server", "retired_tx", &M::engine_retired_tx},
};

constexpr size_t RowsHolding(size_t field_index) {
  size_t n = 0;
  for (const MetricRow& row : kMetricTable) {
    n += row.field.index() == field_index;
  }
  return n;
}

// A member added to ProtocolMetrics without a row fails here.
static_assert(sizeof(ProtocolMetrics) ==
                  RowsHolding(0) * sizeof(Counter) +
                      RowsHolding(1) * sizeof(Histogram),
              "every ProtocolMetrics member needs one MetricTable row");

}  // namespace

std::span<const MetricRow> MetricTable() { return kMetricTable; }

double ProtocolMetrics::cache_hit_rate() const {
  int64_t probes = cache_hits.value() + cache_misses.value();
  return probes == 0 ? 0.0
                     : static_cast<double>(cache_hits.value()) /
                           static_cast<double>(probes);
}

int64_t ProtocolMetrics::active_sessions() const {
  return server_sessions_opened.value() - server_sessions_closed.value();
}

std::string ProtocolMetrics::Summary() const {
  std::string out;
  std::string line;        // " key=value" per scalar of the current group.
  std::string histograms;  // A line per histogram of the group with samples.
  bool active = false;     // A counter of the current group is nonzero.
  std::span<const MetricRow> table = MetricTable();
  for (size_t i = 0; i < table.size(); ++i) {
    const MetricRow& row = table[i];
    const std::string_view group = row.group;
    std::visit(
        [&](auto field) {
          using Field = decltype(field);
          if constexpr (std::is_same_v<Field, Histogram ProtocolMetrics::*>) {
            const Histogram& h = this->*field;
            if (h.count() == 0) return;
            histograms += StrCat(group, group.empty() ? "" : ".", row.key,
                                 ": ", h.ToString(), "\n");
          } else if constexpr (std::is_same_v<Field,
                                              Counter ProtocolMetrics::*>) {
            int64_t value = (this->*field).value();
            active |= value != 0;
            line += StrCat(" ", row.key, "=", value);
          } else {
            line += StrCat(" ", row.key, "=", (this->*field)());
          }
        },
        row.field);
    if (i + 1 < table.size() && group == table[i + 1].group) continue;
    if (active) {
      out += group.empty() ? line.substr(1) : StrCat(group, ":", line);
      out += "\n";
    }
    out += histograms;
    line.clear();
    histograms.clear();
    active = false;
  }
  return out;
}

void ProtocolMetrics::Reset() {
  for (const MetricRow& row : MetricTable()) {
    if (auto* counter = std::get_if<Counter ProtocolMetrics::*>(&row.field)) {
      (this->**counter).Reset();
    } else if (auto* histogram =
                   std::get_if<Histogram ProtocolMetrics::*>(&row.field)) {
      (this->**histogram).Reset();
    }
  }
}

}  // namespace nonserial
