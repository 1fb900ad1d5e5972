// Corruption fuzz over the framed write-ahead log. Seeded workloads run
// through the parallel driver with a segmented WAL attached; the durable
// image is then damaged the way real media fails — torn tails (byte-prefix
// cuts), single-bit flips anywhere in the image, and whole-segment drops —
// and recovery of the damaged image is checked against an exact oracle:
// the records recoverable from the original image truncated at the fault
// offset. The bar (ISSUE acceptance criteria): torn tails recover exactly
// the committed prefix; mid-log corruption is NEVER silent (strict
// recovery errors, best-effort sets `salvaged`); and every recovered
// history passes the Section 3 correctness checker.
//
// A failing seed replays in isolation with NONSERIAL_FUZZ_SEED=<seed>.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/verify.h"
#include "fuzz_support.h"
#include "sim/parallel_driver.h"
#include "storage/version_store.h"
#include "storage/wal.h"
#include "storage/wal_format.h"
#include "workload/generators.h"

namespace nonserial {
namespace {

// Small segments so even tiny workloads roll over several of them.
constexpr size_t kSegmentBytes = 512;

SimWorkload TinyWorkload(uint64_t seed) {
  DesignWorkloadParams params;
  params.num_txs = 5;
  params.num_entities = 6;
  params.num_conjuncts = 2;
  params.reads_per_tx = 2;
  params.think_time = 0;
  params.arrival_spacing = 0;
  params.precedence_prob = 0.3;
  params.hot_theta = 0.6;
  params.seed = seed;
  return MakeDesignWorkload(params);
}

/// Runs `workload` to completion with `wal` attached; the log afterwards
/// holds the full durable history. With `group_commit` the workers stage
/// frames through the pipelined writer, so the image is built from batched
/// chunk writes instead of per-record appends — recovery must not be able
/// to tell the difference.
void RunLogged(const SimWorkload& workload, WriteAheadLog* wal, uint64_t seed,
               bool group_commit = false) {
  ParallelDriverConfig config;
  config.num_threads = 2;
  config.us_per_tick = 0;
  config.max_restarts = 60;
  config.backoff_us = 1;
  config.engine.poll_us = 50;
  config.max_wall_ms = 20'000;
  config.engine.wal = wal;
  config.engine.wal_group_commit = group_commit;
  ParallelDriver driver(config);
  ParallelRunResult result = driver.Run(workload);
  ASSERT_FALSE(result.watchdog_expired)
      << "seed " << seed << "; " << fuzz::ReproduceHint(seed);
}

std::vector<int> TxIds(const std::vector<RecoveredTx>& committed) {
  std::vector<int> ids;
  ids.reserve(committed.size());
  for (const RecoveredTx& t : committed) ids.push_back(t.tx);
  return ids;
}

std::string SegmentMagicBytes() {
  std::string m;
  for (int i = 0; i < 8; ++i) {
    m.push_back(
        static_cast<char>((wal_format::kSegmentMagic >> (8 * i)) & 0xFF));
  }
  return m;
}

/// Byte offsets at which each segment of the image starts.
std::vector<size_t> SegmentBounds(const std::string& image) {
  static const std::string magic = SegmentMagicBytes();
  std::vector<size_t> bounds;
  for (size_t pos = image.find(magic); pos != std::string::npos;
       pos = image.find(magic, pos + 1)) {
    bounds.push_back(pos);
  }
  return bounds;
}

struct Fault {
  std::string kind;
  std::string image;     ///< The damaged durable image.
  size_t reference_cut;  ///< Oracle: recovery must salvage exactly what the
                         ///< ORIGINAL image truncated here recovers.
};

/// Damages `original` one of the three ways media fail. The oracle holds
/// for all of them because recovery never replays past the first
/// undecodable point: whatever decodes before the fault offset is exactly
/// what a clean truncation at that offset would recover.
Fault MakeFault(const std::string& original, uint64_t seed, Rng* rng) {
  Fault fault;
  int kind = static_cast<int>(seed % 3);
  if (kind == 2) {
    std::vector<size_t> bounds = SegmentBounds(original);
    if (bounds.size() >= 2) {
      size_t k = static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(bounds.size()) - 1));
      size_t start = bounds[k];
      size_t end = k + 1 < bounds.size() ? bounds[k + 1] : original.size();
      fault.kind = "segment_drop";
      fault.image = original.substr(0, start) + original.substr(end);
      fault.reference_cut = start;
      return fault;
    }
    kind = 1;  // Single-segment image: fall back to a flip.
  }
  if (kind == 1) {
    size_t b = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(original.size()) - 1));
    int bit = static_cast<int>(rng->UniformInt(0, 7));
    fault.kind = "bit_flip";
    fault.image = original;
    fault.image[b] = static_cast<char>(fault.image[b] ^ (1 << bit));
    fault.reference_cut = b;
    return fault;
  }
  size_t cut = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(original.size()) - 1));
  fault.kind = "torn_tail";
  fault.image = original.substr(0, cut);
  fault.reference_cut = cut;
  return fault;
}

TEST(WalCorruptionFuzzTest, DamagedImagesRecoverTheVerifiablePrefix) {
  constexpr uint64_t kSeeds = 210;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    if (!fuzz::ShouldRunSeed(seed)) continue;
    SCOPED_TRACE("seed " + std::to_string(seed) + "; " +
                 fuzz::ReproduceHint(seed));
    SimWorkload workload = TinyWorkload(seed);
    Predicate constraint = WorkloadConstraint(workload);
    WriteAheadLog wal(workload.initial, kSegmentBytes);
    // Every third seed builds the image through the group-commit pipeline,
    // so faults also land on chunk-written (batched) logs.
    RunLogged(workload, &wal, seed, /*group_commit=*/seed % 3 == 0);
    if (::testing::Test::HasFatalFailure()) return;
    // Every fifth seed checkpoints first, so faults also land on images
    // whose first frame is a checkpoint.
    if (seed % 5 == 0) {
      Status cp = wal.Checkpoint();
      ASSERT_TRUE(cp.ok()) << cp.ToString();
    }
    std::string original = wal.SerializedImage();
    ASSERT_GT(original.size(), wal_format::kSegmentHeaderBytes);

    Rng rng(seed * 0x9e3779b97f4a7c15ULL);
    Fault fault = MakeFault(original, seed, &rng);
    SCOPED_TRACE(fault.kind + " at byte " +
                 std::to_string(fault.reference_cut) + " of " +
                 std::to_string(original.size()));

    auto damaged =
        WriteAheadLog::FromImage(fault.image, workload.initial, kSegmentBytes);
    RecoveryResult strict = damaged->Recover();
    RecoveryOptions be_opts;
    be_opts.best_effort = true;
    RecoveryResult best_effort = damaged->Recover(be_opts);
    auto reference_log = WriteAheadLog::FromImage(
        original.substr(0, fault.reference_cut), workload.initial,
        kSegmentBytes);
    RecoveryResult reference = reference_log->Recover();
    ASSERT_TRUE(reference.status.ok()) << reference.status.ToString();

    // Mid-log corruption is never silent: strict recovery errors exactly
    // when valid data survives past the damage; best-effort always
    // succeeds but flags what it salvaged.
    EXPECT_EQ(strict.status.ok(), !strict.corruption_detected)
        << strict.status.ToString();
    EXPECT_EQ(best_effort.corruption_detected, strict.corruption_detected);
    EXPECT_TRUE(best_effort.status.ok()) << best_effort.status.ToString();
    EXPECT_EQ(best_effort.salvaged, best_effort.corruption_detected);
    if (fault.kind == "torn_tail") {
      // A pure byte-prefix cut is a normal crash artifact, never corruption.
      EXPECT_FALSE(strict.corruption_detected);
    }

    // The oracle: best-effort recovery of the damaged image equals clean
    // recovery of the original truncated at the fault.
    EXPECT_EQ(TxIds(best_effort.committed), TxIds(reference.committed));
    EXPECT_EQ(best_effort.store->LatestCommittedSnapshot(),
              reference.store->LatestCommittedSnapshot());

    // And the salvaged history is itself a correct execution.
    Status verdict = VerifyCepHistory(
        workload, RecoveredRecords(best_effort.committed, workload.txs.size()),
        best_effort.store->LatestCommittedSnapshot(), constraint);
    EXPECT_TRUE(verdict.ok()) << verdict.ToString();
  }
}

TEST(WalCorruptionFuzzTest, EveryBytePrefixMatchesRecordPrefixRecovery) {
  // PR 2 established record-granularity prefix recovery; the framed format
  // must refine it: every BYTE prefix of a clean image either recovers the
  // same state as the record prefix it fully contains (a clean torn-tail
  // truncation of the partial record), never reporting corruption. Seeds
  // 31xx build their image under group commit: a batch is one chunk write,
  // but a byte prefix can still end anywhere inside it, so the same
  // invariant must hold over batched logs (a torn batch truncates to the
  // records that fully fit — possibly the whole batch).
  for (uint64_t seed : {3001ull, 3002ull, 3003ull, 3101ull, 3102ull, 3103ull}) {
    if (!fuzz::ShouldRunSeed(seed)) continue;
    SCOPED_TRACE("seed " + std::to_string(seed) + "; " +
                 fuzz::ReproduceHint(seed));
    SimWorkload workload = TinyWorkload(seed);
    WriteAheadLog wal(workload.initial, kSegmentBytes);
    RunLogged(workload, &wal, seed, /*group_commit=*/seed >= 3100);
    if (::testing::Test::HasFatalFailure()) return;
    std::string image = wal.SerializedImage();
    std::vector<size_t> record_ends = wal_format::RecordEndOffsets(image);
    ASSERT_EQ(record_ends.size(), wal.size());

    for (size_t cut = 0; cut <= image.size(); ++cut) {
      auto prefix_log = WriteAheadLog::FromImage(
          image.substr(0, cut), workload.initial, kSegmentBytes);
      RecoveryResult rec = prefix_log->Recover();
      // A byte prefix is always a clean crash image: recoverable without
      // best-effort, and never classified as corruption.
      ASSERT_TRUE(rec.status.ok())
          << "cut " << cut << ": " << rec.status.ToString();
      EXPECT_FALSE(rec.corruption_detected) << "cut " << cut;
      // It must recover exactly the records that fully fit in the prefix.
      size_t records_inside = static_cast<size_t>(
          std::upper_bound(record_ends.begin(), record_ends.end(), cut) -
          record_ends.begin());
      RecoveryResult reference = wal.Recover(records_inside);
      EXPECT_EQ(TxIds(rec.committed), TxIds(reference.committed))
          << "cut " << cut << " (" << records_inside << " whole records)";
      EXPECT_EQ(rec.store->LatestCommittedSnapshot(),
                reference.store->LatestCommittedSnapshot())
          << "cut " << cut;
      if (::testing::Test::HasNonfatalFailure()) break;
    }
  }
}

}  // namespace
}  // namespace nonserial
