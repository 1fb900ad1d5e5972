#include "sim/parallel_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"

namespace nonserial {
namespace {

using Clock = std::chrono::steady_clock;

/// Opens session i for workload transaction i; on a fresh engine it
/// allocates id i, the index records and ChaosCycles are keyed by.
std::vector<std::unique_ptr<Session>> OpenSessions(Engine* engine,
                                                   size_t count) {
  NONSERIAL_CHECK(engine->cep() != nullptr) << "the parallel driver runs CEP";
  std::vector<std::unique_ptr<Session>> sessions;
  for (size_t i = 0; i < count; ++i) {
    sessions.push_back(engine->OpenSession());
    NONSERIAL_CHECK_EQ(sessions.back()->tx(), static_cast<int>(i))
        << "the parallel driver needs a fresh engine";
  }
  return sessions;
}

class Driver {
 public:
  /// `recovered[i]`: transaction i is durable from an earlier crash cycle
  /// (CrashRecover re-adopted it), so it does not run again.
  /// `crash_after_us` >= 0 arms the crash timer.
  Driver(const SimWorkload& workload, const std::vector<StepProgram>& programs,
         const ParallelDriverConfig& config, Engine* engine,
         const std::vector<std::unique_ptr<Session>>& sessions,
         const std::vector<bool>& recovered, int64_t crash_after_us,
         uint64_t storm_seed)
      : workload_(workload),
        programs_(programs),
        config_(config),
        engine_(engine),
        sessions_(sessions),
        recovered_(recovered),
        crash_after_us_(crash_after_us),
        storm_rng_(storm_seed),
        held_(std::make_unique<std::atomic<bool>[]>(workload.txs.size())) {
    result_.tx.resize(workload.txs.size());
    stormed_.resize(workload.txs.size(), false);
  }

  ParallelRunResult Run() {
    Clock::time_point start = Clock::now();
    int threads = std::max(1, config_.num_threads);
    running_ = threads;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int i = 0; i < threads; ++i) {
      workers.emplace_back([this] {
        WorkerLoop();
        std::lock_guard<std::mutex> lock(mu_);
        if (--running_ == 0) done_cv_.notify_all();
      });
    }
    WatchClock(start);
    for (std::thread& worker : workers) worker.join();

    result_.wall_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                              Clock::now() - start)
                              .count();
    result_.watchdog_expired = expired_;
    result_.all_committed = true;
    for (const ParallelTxOutcome& outcome : result_.tx) {
      result_.total_aborts += outcome.aborts;
      if (outcome.committed) {
        ++result_.committed_count;
      } else {
        result_.all_committed = false;
      }
    }
    return std::move(result_);
  }

 private:
  bool Halted() const { return halted_.load(std::memory_order_acquire); }

  void SleepTicks(SimTime ticks) const {
    int64_t us = ticks * config_.us_per_tick;
    if (us > 0) std::this_thread::sleep_for(std::chrono::microseconds(us));
  }

  /// The run's clock, on the calling thread until the workers finish: storms
  /// at their interval, and the crash timer, which kills the engine
  /// (attempts are abandoned, as in a crash), or the watchdog, which shuts
  /// it down (parked attempts wake and roll back).
  void WatchClock(Clock::time_point start) {
    const ChaosConfig& chaos = config_.chaos;
    const bool storms = chaos.enabled && chaos.abort_storm_interval_us > 0;
    const auto storm_interval =
        std::chrono::microseconds(chaos.abort_storm_interval_us);
    const Clock::time_point deadline =
        start + std::chrono::milliseconds(config_.max_wall_ms);
    const Clock::time_point crash_at =
        crash_after_us_ < 0
            ? deadline
            : std::min(deadline,
                       start + std::chrono::microseconds(crash_after_us_));
    Clock::time_point next_storm = start + storm_interval;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      Clock::time_point wake =
          storms ? std::min(crash_at, next_storm) : crash_at;
      if (done_cv_.wait_until(lock, wake, [this] { return running_ == 0; })) {
        return;
      }
      Clock::time_point now = Clock::now();
      // A due storm fires before a due crash: on a slow clock (sanitizer
      // builds, a loaded machine) the first wake-up can land past both.
      if (storms && now >= next_storm) {
        Storm();
        next_storm = now + storm_interval;
      }
      if (now >= crash_at) {
        expired_ = now >= deadline;
        if (crash_after_us_ >= 0) {
          engine_->Kill();
        } else {
          engine_->Shutdown();
        }
        // After the kill: a worker that sees the halt also sees the new
        // controller generation, so its Session::Abort logs no rollback.
        halted_.store(true, std::memory_order_release);
        return;
      }
    }
  }

  /// Forces `aborts_per_storm` attempts that workers hold right now to
  /// abort: forcing an idle or committed transaction is a no-op. Each
  /// transaction takes at most one storm abort per run (one crash cycle),
  /// so storms cannot starve it. The owning session sees the forced abort; its worker
  /// restarts.
  void Storm() {
    std::vector<int> held;
    for (size_t tx = 0; tx < workload_.txs.size(); ++tx) {
      if (held_[tx].load() && !stormed_[tx]) {
        held.push_back(static_cast<int>(tx));
      }
    }
    for (int i = 0; i < config_.chaos.aborts_per_storm && !held.empty(); ++i) {
      const size_t pick =
          storm_rng_.Uniform(static_cast<uint32_t>(held.size()));
      stormed_[held[pick]] = true;
      engine_->InjectAbort(held[pick]);
      held.erase(held.begin() + static_cast<ptrdiff_t>(pick));
    }
  }

  void WorkerLoop() {
    for (;;) {
      if (Halted()) return;
      int tx = next_tx_.fetch_add(1, std::memory_order_relaxed);
      if (tx >= static_cast<int>(workload_.txs.size())) return;
      RunTx(tx);
    }
  }

  void RunTx(int tx) {
    ParallelTxOutcome& outcome = result_.tx[tx];  // Written by this worker.
    if (recovered_[tx]) {
      outcome.committed = true;
      return;
    }
    const StepProgram& program = programs_[tx];
    Session* session = sessions_[tx].get();
    SpanTimeline* timeline = config_.timeline;
    ProtocolMetrics* metrics = engine_->metrics();
    if (timeline != nullptr) {
      timeline->SetLaneName(tx, program.spec.name.empty()
                                    ? StrCat("tx", tx)
                                    : program.spec.name);
    }
    int restarts = 0;

    while (!Halted()) {
      // Phase-span bookkeeping: close_phase stamps the span ending now and
      // re-arms the mark for the next phase. Completed phases additionally
      // feed the metrics span histograms; failed ones only appear on the
      // timeline (ok=false), where aborted work is the interesting part.
      Clock::time_point phase_mark = Clock::now();
      int64_t phase_offset_us =
          timeline == nullptr ? 0 : timeline->ElapsedUs();
      auto close_phase = [&](const char* phase, bool ok, Histogram* hist) {
        int64_t dur_us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - phase_mark)
                .count();
        if (ok) hist->Record(dur_us);
        if (timeline != nullptr) {
          timeline->Add({tx, restarts, phase, phase_offset_us, dur_us, ok});
        }
        phase_mark = Clock::now();
        phase_offset_us = timeline == nullptr ? 0 : timeline->ElapsedUs();
      };

      bool ok = session->Begin(program.spec).ok();
      held_[tx].store(ok);
      close_phase("validate", ok, &metrics->span_validate);
      if (ok) {
        // The script, between the program's Begin and Commit; each op's
        // ticks become real sleeps.
        ValueVector view = workload_.initial;
        ok = !Halted() &&
             RunOps(session, program, 1,
                    static_cast<int>(program.ops.size()) - 1, &view,
                    [&](int op, Value) {
                      SleepTicks(program.ops[op].after);
                      return !Halted();
                    });
        close_phase("execute", ok, &metrics->span_execute);
      }
      if (ok) {
        ok = session->Commit().ok();
        close_phase("terminate", ok, &metrics->span_terminate);
      }
      held_[tx].store(false);
      if (ok) {
        outcome.committed = true;
        break;
      }
      // Other failures were rolled back already. A halted attempt is rolled
      // back now, unless a crash-kill outlived it (Session::Abort then
      // drops it without a rollback).
      if (Halted()) {
        session->Abort();
        break;
      }
      ++outcome.aborts;
      if (++restarts > config_.max_restarts) break;
      // Same deterministic desynchronizing backoff as the simulator.
      int64_t jitter = 1 + ((tx * 7 + restarts * 13) % 8);
      int64_t growth = std::min<int64_t>(1 + restarts, 64);
      std::this_thread::sleep_for(
          std::chrono::microseconds(config_.backoff_us * jitter * growth));
    }
    outcome.gave_up = !outcome.committed;
  }

  const SimWorkload& workload_;
  const std::vector<StepProgram>& programs_;
  const ParallelDriverConfig& config_;
  Engine* engine_;
  const std::vector<std::unique_ptr<Session>>& sessions_;
  const std::vector<bool>& recovered_;
  int64_t crash_after_us_;
  Rng storm_rng_;
  /// held_[tx]: a worker is inside an attempt of tx (begun, not yet
  /// committed or rolled back) — what storms aim at.
  std::unique_ptr<std::atomic<bool>[]> held_;
  std::vector<bool> stormed_;  ///< A storm aborted tx; clock thread only.

  std::atomic<int> next_tx_{0};
  /// Set by the clock once it has killed or shut down the engine; workers
  /// then stop.
  std::atomic<bool> halted_{false};
  bool expired_ = false;  ///< The watchdog, not the crash timer, fired.
  std::mutex mu_;
  std::condition_variable done_cv_;
  int running_ = 0;  ///< Workers still running; guarded by mu_.
  ParallelRunResult result_;
};

}  // namespace

ParallelRunResult ParallelDriver::Run(
    const SimWorkload& workload,
    std::shared_ptr<VersionStore>* store_out,
    std::shared_ptr<CorrectExecutionProtocol>* cep_out) const {
  std::vector<StepProgram> programs = WorkloadPrograms(workload, 0);
  EngineOptions options = config_.engine;
  options.initial = workload.initial;
  Engine engine(std::move(options));
  std::vector<std::unique_ptr<Session>> sessions =
      OpenSessions(&engine, programs.size());
  std::vector<bool> recovered(programs.size(), false);
  Driver driver(workload, programs, config_, &engine, sessions, recovered,
                /*crash_after_us=*/-1, /*storm_seed=*/config_.chaos.seed);
  ParallelRunResult result = driver.Run();
  sessions.clear();
  engine.Shutdown();
  if (store_out != nullptr) *store_out = engine.store_ref();
  if (cep_out != nullptr) *cep_out = engine.cep_ref();
  return result;
}

ChaosRunResult ParallelDriver::RunChaos(
    const SimWorkload& workload,
    std::shared_ptr<VersionStore>* store_out,
    std::shared_ptr<CorrectExecutionProtocol>* cep_out) const {
  const ChaosConfig& chaos = config_.chaos;
  NONSERIAL_CHECK(chaos.enabled) << "RunChaos needs config.chaos.enabled";
  std::vector<StepProgram> programs = WorkloadPrograms(workload, 0);
  // The log is the only state that survives a crash. An external log
  // (config.engine.wal) lets tests inspect or truncate it; otherwise one is
  // owned here for the duration of the run.
  WriteAheadLog owned_wal(workload.initial);
  EngineOptions options = config_.engine;
  options.initial = workload.initial;
  if (options.wal == nullptr) options.wal = &owned_wal;
  WriteAheadLog* wal = options.wal;
  Engine engine(std::move(options));
  std::vector<std::unique_ptr<Session>> sessions =
      OpenSessions(&engine, programs.size());
  ProtocolMetrics* metrics = engine.metrics();
  const int64_t injected_before = metrics->injected_aborts.value();
  TraceSink* observer = config_.engine.observer;

  FailpointRegistry& registry = FailpointRegistry::Global();
  registry.Seed(chaos.seed);
  for (const auto& [name, spec] : chaos.failpoints) registry.Arm(name, spec);
  Rng rng(chaos.seed ^ 0x9e3779b97f4a7c15ULL);

  ChaosRunResult out;
  std::vector<bool> recovered(programs.size(), false);
  for (int cycle = 0; cycle <= chaos.crash_cycles; ++cycle) {
    const bool final_cycle = cycle == chaos.crash_cycles;
    int64_t crash_after_us =
        final_cycle ? -1
                    : rng.UniformInt(chaos.min_cycle_us, chaos.max_cycle_us);
    Driver driver(workload, programs, config_, &engine, sessions, recovered,
                  crash_after_us, chaos.seed + static_cast<uint64_t>(cycle));
    ParallelRunResult result = driver.Run();
    if (final_cycle) {
      out.final_result = std::move(result);
      break;
    }

    // Crash: the clock killed the engine mid-flight; CrashRecover rebuilds
    // store + controller from the log (fenced with the crash marker so
    // pre-crash in-flight appends cannot resurrect) and re-adopts the
    // durable commits with their workload specs and P-edges.
    ChaosCycle c;
    WalStats pre_stats = wal->stats();
    c.wal_records = pre_stats.records;
    c.wal_bytes = pre_stats.bytes;
    // Best-effort salvage: mid-log corruption (injected media faults)
    // keeps the longest verifiable committed prefix instead of failing.
    RecoveryOptions recovery_options;
    recovery_options.best_effort = true;
    RecoveryResult rec =
        engine.CrashRecover(recovery_options, [&programs](int tx) {
          NONSERIAL_CHECK_LT(tx, static_cast<int>(programs.size()));
          return programs[tx].spec;
        });
    // Corruption is never silently absorbed: salvage reports it (cycle
    // flags + trace + metrics), and a recovery that still fails stops the
    // run on the spot.
    NONSERIAL_CHECK(rec.status.ok())
        << "chaos cycle " << cycle
        << " recovery failed: " << rec.status.ToString();
    c.recovered_committed = static_cast<int>(rec.committed.size());
    c.replayed_appends = rec.replayed_appends;
    c.discarded_appends = rec.discarded_appends;
    c.frames_scanned = rec.frames_scanned;
    c.frames_truncated = rec.frames_truncated;
    c.frames_salvaged = rec.frames_salvaged;
    c.truncated_tail = rec.truncated_tail;
    c.corruption_detected = rec.corruption_detected;
    c.salvaged = rec.salvaged;
    c.recovery_micros = rec.recovery_micros;
    if (observer != nullptr && rec.corruption_detected) {
      TraceEvent event;
      event.kind = TraceEvent::Kind::kCorruptionDetected;
      event.tx = cycle;
      event.value = rec.frames_salvaged;
      event.protocol = "wal";
      observer->OnEvent(event);
    }
    // The durable committed set is exactly what THIS recovery returned:
    // with best-effort salvage, accumulating across cycles could resurrect
    // transactions whose records a later media fault destroyed.
    c.recovered_records = RecoveredRecords(rec.committed, programs.size());
    int newly_recovered = 0;
    for (size_t i = 0; i < programs.size(); ++i) {
      bool durable = c.recovered_records[i].committed;
      if (durable && !recovered[i]) ++newly_recovered;
      recovered[i] = durable;
    }
    // Checkpoint compaction: the recovered state becomes one checkpoint
    // frame and every earlier segment is reclaimed — the log stays bounded
    // no matter how many crash cycles the run sustains.
    c.segments_reclaimed = wal->CompactTo(rec);
    c.post_compaction_records = static_cast<int64_t>(wal->size());
    metrics->checkpoint_compactions.Add();
    if (observer != nullptr) {
      TraceEvent event;
      event.kind = TraceEvent::Kind::kCheckpoint;
      event.tx = cycle;
      event.value = static_cast<Value>(rec.committed.size());
      event.protocol = "wal";
      observer->OnEvent(event);
      event.kind = TraceEvent::Kind::kCompaction;
      event.value = static_cast<Value>(c.segments_reclaimed);
      observer->OnEvent(event);
    }
    metrics->crash_restarts.Add();
    metrics->recovered_txs.Add(newly_recovered);
    metrics->recovery_frames_scanned.Add(rec.frames_scanned);
    metrics->recovery_frames_truncated.Add(rec.frames_truncated);
    metrics->recovery_frames_salvaged.Add(rec.frames_salvaged);
    metrics->recovery_micros.Record(rec.recovery_micros);
    c.recovered_snapshot = rec.store->LatestCommittedSnapshot();
    out.cycles.push_back(std::move(c));
  }
  out.leaked_waiters = engine.cep()->WaiterFootprint();
  out.injected_aborts = metrics->injected_aborts.value() - injected_before;
  for (const auto& [name, spec] : chaos.failpoints) registry.Disarm(name);
  sessions.clear();
  engine.Shutdown();
  if (store_out != nullptr) *store_out = engine.store_ref();
  if (cep_out != nullptr) *cep_out = engine.cep_ref();
  return out;
}

}  // namespace nonserial
