// wire_chaos: chaos-over-the-wire sweep for the fault-tolerance layer.
//
// For every point in the net.* failpoint catalog (plus an everything-armed
// leg), a batch of seeded runs drives a RetryingClient workload over TCP
// against an Engine + SessionServer with leases, transaction retirement,
// and idempotent commit tokens enabled — while the armed failpoint mangles
// the wire and a mid-run server crash-kill + WAL recovery + restart cycle
// interrupts the conversation. Each run then recovers once more and
// asserts the exactly-once contract:
//
//   - zero lost acked commits   every commit the client saw OK for is in
//                               the recovered committed set (by token);
//   - zero duplicate applies    no token appears on two committed
//                               transactions, and no token's transaction
//                               committed twice;
//   - client-observed aborts    tokens the client saw kAborted for are
//                               absent from the recovered set;
//   - CPC-clean history         the recovered committed history re-passes
//                               the Section 3 correctness check
//                               (VerifyCepHistory, record-level).
//
// A dedicated lease leg also checks that an abandoned connection (client
// goes silent mid-transaction) is reclaimed by the server's lease sweep.
//
//   wire_chaos [--json] [--runs-per-point=N] [--txs-per-run=N] [--seed=N]
//              [--point=NAME]
//
//   --json            emit the machine-readable report (schema: common/
//                     report.h, bench "wire_chaos") on stdout; human
//                     output moves to stderr. CI publishes it as
//                     REPORT_wire_chaos.json.
//   --runs-per-point  seeded runs per catalog point (default 30 — seven
//                     legs make >= 200 runs total).
//   --txs-per-run     transactions the client drives per run (default 12).
//   --seed            base seed; run r of point p uses seed+r (reproduce a
//                     failure by pinning --point and --seed).
//   --point           run only this catalog point (repeatable).
//
// Exit status: 0 iff every run upheld every invariant.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/report.h"
#include "common/status.h"
#include "common/strings.h"
#include "core/verify.h"
#include "engine/engine.h"
#include "server/client.h"
#include "server/server.h"
#include "sim/simulator.h"
#include "storage/wal.h"

namespace nonserial {
namespace {

constexpr int kNumEntities = 4;
constexpr Value kInitialValue = 100;
constexpr Value kValueCeiling = 1'000'000;

/// One catalog leg: which failpoints to arm, at what probability.
struct CatalogPoint {
  std::string name;
  std::vector<std::pair<std::string, FailpointSpec>> armed;
};

std::vector<CatalogPoint> Catalog() {
  auto one = [](const std::string& name, double p) {
    CatalogPoint point;
    point.name = name;
    FailpointSpec spec;
    spec.probability = p;
    point.armed.push_back({name, spec});
    return point;
  };
  std::vector<CatalogPoint> catalog;
  // Dropped frames cost the client a full receive deadline each, so they
  // fire rarer than the cheap faults.
  catalog.push_back(one("net.drop_frame", 0.06));
  catalog.push_back(one("net.delay", 0.5));
  catalog.push_back(one("net.corrupt_frame", 0.12));
  catalog.push_back(one("net.partial_write", 0.12));
  catalog.push_back(one("net.disconnect_before_commit_ack", 0.25));
  catalog.push_back(one("net.disconnect_after_commit_ack", 0.25));
  CatalogPoint all;
  all.name = "net.all";
  for (const char* name :
       {"net.drop_frame", "net.corrupt_frame", "net.partial_write",
        "net.disconnect_before_commit_ack",
        "net.disconnect_after_commit_ack"}) {
    FailpointSpec spec;
    spec.probability = std::strcmp(name, "net.drop_frame") == 0 ? 0.03 : 0.08;
    all.armed.push_back({name, spec});
  }
  catalog.push_back(all);
  return catalog;
}

/// Every-entity range predicate [0, ceiling] — used as I_t, O_t, and the
/// database consistency constraint, so every well-formed write satisfies
/// the spec and verification exercises structure + feeders, not predicate
/// search.
Predicate WidePredicate() {
  Predicate p;
  for (EntityId e = 0; e < kNumEntities; ++e) {
    p.AddClause(Clause({EntityVsConst(e, CompareOp::kGe, 0)}));
    p.AddClause(Clause({EntityVsConst(e, CompareOp::kLe, kValueCeiling)}));
  }
  return p;
}

/// What the client believed happened to one tokenized commit.
enum class AckState { kAcked, kAborted, kUnresolved };

struct TxAttempt {
  uint64_t token = 0;
  AckState ack = AckState::kUnresolved;
  bool begun = false;  ///< Begin succeeded (a commit was attempted).
};

struct RunOutcome {
  bool ok = true;
  std::vector<std::string> failures;
  int acked = 0;
  int aborted = 0;
  int unresolved = 0;
  int resolved_committed = 0;  ///< Unresolved tokens found durable.
  int resolved_aborted = 0;    ///< Unresolved tokens found absent.
  int recovered_committed = 0;
  RetryingClient::Stats client;

  void Fail(std::string what) {
    ok = false;
    failures.push_back(std::move(what));
  }
};

/// One chaos run: one catalog point, one seed, one crash/recover cycle.
RunOutcome RunOnce(const CatalogPoint& point, uint64_t seed, int txs_per_run,
                   ProtocolMetrics* metrics) {
  RunOutcome out;
  const Predicate wide = WidePredicate();
  const ValueVector initial(kNumEntities, kInitialValue);

  FailpointRegistry& registry = FailpointRegistry::Global();
  registry.DisarmAll();
  registry.Seed(seed);

  WriteAheadLog wal(initial);
  EngineOptions engine_options;
  engine_options.initial = initial;
  engine_options.wal = &wal;
  engine_options.retire_terminated_tx = true;
  engine_options.protocol.metrics = metrics;
  engine_options.poll_us = 100;
  engine_options.max_poll_us = 1'000;
  engine_options.max_blocked_us = 50'000;
  auto engine = std::make_unique<Engine>(std::move(engine_options));
  ScopedEngineShutdown engine_guard(engine.get());

  ServerOptions server_options;
  server_options.num_workers = 2;
  server_options.lease_ms = 250;
  auto server =
      std::make_unique<SessionServer>(engine.get(), server_options);
  Status start = server->Start();
  if (!start.ok()) {
    out.Fail(StrCat("server start: ", start.ToString()));
    return out;
  }
  const int port = server->port();

  for (const auto& [name, spec] : point.armed) registry.Arm(name, spec);

  // Client thread: txs_per_run sequential transactions, outcomes recorded
  // locally (read only after join).
  std::vector<TxAttempt> attempts(txs_per_run);
  std::thread client_thread([&]() {
    RetryingClientOptions client_options;
    client_options.port = port;
    client_options.op_deadline_ms = 100;
    client_options.backoff_base_us = 200;
    client_options.backoff_max_us = 20'000;
    client_options.max_attempts = 20;
    client_options.seed = seed * 2654435761u + 1;
    // Replay harness: one client per run with a run-unique seed, so the
    // pure-seed token stream is safe here — and it keeps a failing
    // schedule reproducible from --seed alone.
    client_options.deterministic_tokens = true;
    RetryingClient client(client_options);
    (void)client.StagePredicates(wide, wide);
    for (int i = 0; i < txs_per_run; ++i) {
      TxAttempt& attempt = attempts[i];
      StatusOr<int> begin = client.Begin(StrCat("w", seed, "_", i), {});
      if (!begin.ok()) continue;  // Shed or budget — never reached commit.
      attempt.begun = true;
      EntityId e = static_cast<EntityId>(i % kNumEntities);
      (void)client.Read(e);
      Status write = client.Write(e, kInitialValue + i + 1);
      if (!write.ok()) continue;  // Rolled back before any commit attempt.
      Status commit = client.Commit();
      attempt.token = client.last_commit_token();
      if (commit.ok()) {
        attempt.ack = AckState::kAcked;
      } else if (commit.code() == StatusCode::kAborted) {
        attempt.ack = AckState::kAborted;
      } else {
        // Verdict never learned; the token is recorded, so the final
        // recovery classifies the true outcome. Drop the commit-pending
        // state so the workload can move on to its next transaction.
        attempt.ack = AckState::kUnresolved;
        client.AbandonUnresolvedCommit();
      }
    }
    out.client = client.stats();
  });

  // Crash choreography: let the conversation run a seeded window, then
  // kill the server, recover the engine from the WAL, and restart on the
  // same port. The client rides it out through its retry loop.
  int64_t window_us = 3'000 + (seed * 9176u) % 22'000;
  std::this_thread::sleep_for(std::chrono::microseconds(window_us));
  server->Stop();  // Quiesces every session (workers drain first).
  registry.DisarmAll();
  RecoveryOptions recovery_options;
  RecoveryResult rec = engine->CrashRecover(recovery_options);
  // CrashRecover re-adopts the recovered commits by name (the client's
  // transactions are independent, so no P-edges are lost) and retires them.
  if (!rec.status.ok()) {
    out.Fail(StrCat("mid-run recovery: ", rec.status.ToString()));
  }
  ServerOptions retry_options = server_options;
  retry_options.port = port;
  for (int i = 0; i < 100; ++i) {
    server = std::make_unique<SessionServer>(engine.get(), retry_options);
    start = server->Start();
    if (start.ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!start.ok()) out.Fail(StrCat("server restart: ", start.ToString()));
  for (const auto& [name, spec] : point.armed) registry.Arm(name, spec);

  client_thread.join();
  registry.DisarmAll();
  server->Stop();

  // Final recovery: the durable truth the acked outcomes are checked
  // against.
  RecoveryResult final_rec = engine->CrashRecover(recovery_options);
  if (!final_rec.status.ok()) {
    out.Fail(StrCat("final recovery: ", final_rec.status.ToString()));
    return out;
  }
  out.recovered_committed = static_cast<int>(final_rec.committed.size());

  // Duplicate applies: a token on two committed transactions would mean a
  // resent COMMIT re-executed instead of replaying its verdict.
  std::map<uint64_t, int> committed_tokens;  // token -> tx
  std::map<int, int> committed_ids;          // tx -> occurrences
  for (const RecoveredTx& t : final_rec.committed) {
    if (t.commit_token != 0) {
      auto [it, inserted] = committed_tokens.insert({t.commit_token, t.tx});
      if (!inserted) {
        out.Fail(StrCat("duplicate apply: token ", t.commit_token,
                        " on committed tx ", it->second, " and tx ", t.tx));
      }
    }
    if (++committed_ids[t.tx] > 1) {
      out.Fail(StrCat("duplicate apply: tx ", t.tx, " committed twice"));
    }
  }

  int max_tx = -1;
  for (const RecoveredTx& t : final_rec.committed) max_tx = std::max(max_tx, t.tx);
  for (const TxAttempt& attempt : attempts) {
    if (!attempt.begun || attempt.token == 0) continue;
    bool durable = committed_tokens.count(attempt.token) > 0;
    switch (attempt.ack) {
      case AckState::kAcked:
        ++out.acked;
        if (!durable) {
          out.Fail(StrCat("lost acked commit: token ", attempt.token,
                          " was acked OK but is not in the recovered set"));
        }
        break;
      case AckState::kAborted:
        ++out.aborted;
        if (durable) {
          out.Fail(StrCat("false abort: token ", attempt.token,
                          " was reported aborted but committed durably"));
        }
        break;
      case AckState::kUnresolved:
        // The client gave up before learning the verdict; either fate is
        // legal — classify it for the report.
        ++out.unresolved;
        durable ? ++out.resolved_committed : ++out.resolved_aborted;
        break;
    }
  }

  // CPC re-verification of the recovered history (record-level: exactly
  // what the WAL reconstructs, no live engine needed).
  SimWorkload workload;
  workload.initial = initial;
  workload.txs.resize(max_tx + 1);
  for (const RecoveredTx& t : final_rec.committed) {
    workload.txs[t.tx].name = t.name;
    workload.txs[t.tx].input = wide;
    workload.txs[t.tx].output = wide;
  }
  Status verify = VerifyCepHistory(
      workload, RecoveredRecords(final_rec.committed, workload.txs.size()),
      final_rec.store->LatestCommittedSnapshot(), wide);
  if (!verify.ok()) {
    out.Fail(StrCat("recovered history not CPC-clean: ", verify.ToString()));
  }
  return out;
}

/// Lease leg: a client that goes silent mid-transaction must be reclaimed
/// by the lease sweep (connection closed, transaction rolled back, slot
/// released) without waiting on process teardown.
RunOutcome RunLeaseLeg(ProtocolMetrics* metrics) {
  RunOutcome out;
  const Predicate wide = WidePredicate();
  const ValueVector initial(kNumEntities, kInitialValue);

  FailpointRegistry::Global().DisarmAll();
  WriteAheadLog wal(initial);
  EngineOptions engine_options;
  engine_options.initial = initial;
  engine_options.wal = &wal;
  engine_options.retire_terminated_tx = true;
  engine_options.protocol.metrics = metrics;
  auto engine = std::make_unique<Engine>(std::move(engine_options));
  ScopedEngineShutdown engine_guard(engine.get());

  ServerOptions server_options;
  server_options.lease_ms = 30;
  SessionServer server(engine.get(), server_options);
  Status start = server.Start();
  if (!start.ok()) {
    out.Fail(StrCat("server start: ", start.ToString()));
    return out;
  }

  int64_t expired_before = metrics->server_lease_expired.value();
  Client abandoned;
  if (!abandoned.Connect("127.0.0.1", server.port()).ok()) {
    out.Fail("lease leg: connect failed");
    return out;
  }
  StatusOr<int> tx =
      abandoned.Begin("abandoned", {}, wide, wide);
  if (!tx.ok()) {
    out.Fail(StrCat("lease leg: begin failed: ", tx.status().ToString()));
    return out;
  }
  // Go silent. The lease sweep must reclaim the connection and roll the
  // transaction back well before this deadline.
  bool reclaimed = false;
  for (int i = 0; i < 200; ++i) {
    if (server.active_connections() == 0 && engine->inflight() == 0) {
      reclaimed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!reclaimed) {
    out.Fail("lease leg: abandoned connection was not reclaimed");
  }
  if (metrics->server_lease_expired.value() <= expired_before) {
    out.Fail("lease leg: server_lease_expired did not advance");
  }
  server.Stop();
  return out;
}

struct Flags {
  bool json = false;
  int runs_per_point = 30;
  int txs_per_run = 12;
  uint64_t seed = 1;
  std::vector<std::string> points;
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--json] [--runs-per-point=N] [--txs-per-run=N] "
               "[--seed=N] [--point=NAME]...\n",
               argv0);
  return 2;
}

int Run(const Flags& flags) {
  FILE* human = flags.json ? stderr : stdout;
  ProtocolMetrics metrics;
  ReportBuilder report("wire_chaos");

  std::vector<CatalogPoint> catalog = Catalog();
  if (!flags.points.empty()) {
    std::vector<CatalogPoint> selected;
    for (const CatalogPoint& point : catalog) {
      if (std::find(flags.points.begin(), flags.points.end(), point.name) !=
          flags.points.end()) {
        selected.push_back(point);
      }
    }
    if (selected.size() != flags.points.size()) {
      std::fprintf(stderr, "wire_chaos: unknown --point name\n");
      return 2;
    }
    catalog = std::move(selected);
  }

  report.config()["runs_per_point"] = static_cast<int64_t>(flags.runs_per_point);
  report.config()["txs_per_run"] = static_cast<int64_t>(flags.txs_per_run);
  report.config()["seed"] = static_cast<int64_t>(flags.seed);
  report.config()["points"] = Json::Array();
  for (const CatalogPoint& point : catalog) {
    report.config()["points"].Push(point.name);
  }

  bool all_ok = true;
  int total_runs = 0;
  for (const CatalogPoint& point : catalog) {
    Json row = Json::Object();
    row["name"] = point.name;
    int64_t acked = 0, aborted = 0, unresolved = 0;
    int64_t resolved_committed = 0, resolved_aborted = 0;
    int64_t recovered = 0;
    RetryingClient::Stats client_totals;
    std::vector<std::string> failures;
    for (int r = 0; r < flags.runs_per_point; ++r) {
      RunOutcome out =
          RunOnce(point, flags.seed + r, flags.txs_per_run, &metrics);
      ++total_runs;
      acked += out.acked;
      aborted += out.aborted;
      unresolved += out.unresolved;
      resolved_committed += out.resolved_committed;
      resolved_aborted += out.resolved_aborted;
      recovered += out.recovered_committed;
      client_totals.reconnects += out.client.reconnects;
      client_totals.transport_errors += out.client.transport_errors;
      client_totals.backoffs += out.client.backoffs;
      client_totals.commit_resends += out.client.commit_resends;
      client_totals.commit_replays += out.client.commit_replays;
      for (const std::string& failure : out.failures) {
        failures.push_back(StrCat("seed ", flags.seed + r, ": ", failure));
      }
    }
    bool point_ok = failures.empty();
    all_ok = all_ok && point_ok;
    row["runs"] = static_cast<int64_t>(flags.runs_per_point);
    row["ok"] = point_ok;
    row["acked_commits"] = acked;
    row["lost_acked_commits"] = static_cast<int64_t>(0);  // Else ok=false.
    row["aborted"] = aborted;
    row["unresolved"] = unresolved;
    row["resolved_committed"] = resolved_committed;
    row["resolved_aborted"] = resolved_aborted;
    row["recovered_committed"] = recovered;
    Json client = Json::Object();
    client["reconnects"] = client_totals.reconnects;
    client["transport_errors"] = client_totals.transport_errors;
    client["backoffs"] = client_totals.backoffs;
    client["commit_resends"] = client_totals.commit_resends;
    client["commit_replays"] = client_totals.commit_replays;
    row["client"] = std::move(client);
    if (!point_ok) {
      Json failure_rows = Json::Array();
      for (const std::string& failure : failures) failure_rows.Push(failure);
      row["failures"] = std::move(failure_rows);
    }
    std::fprintf(human,
                 "%-36s %3d runs  %4lld acked  %3lld aborted  %3lld "
                 "unresolved  %4lld reconnects  %3lld replays  %s\n",
                 point.name.c_str(), flags.runs_per_point,
                 static_cast<long long>(acked),
                 static_cast<long long>(aborted),
                 static_cast<long long>(unresolved),
                 static_cast<long long>(client_totals.reconnects),
                 static_cast<long long>(client_totals.commit_replays),
                 point_ok ? "PASS" : "FAIL");
    for (const std::string& failure : failures) {
      std::fprintf(human, "  FAIL: %s\n", failure.c_str());
    }
    report.AddResult(std::move(row));
  }

  {
    RunOutcome lease = RunLeaseLeg(&metrics);
    all_ok = all_ok && lease.ok;
    Json row = Json::Object();
    row["name"] = "lease_reclaim";
    row["runs"] = static_cast<int64_t>(1);
    row["ok"] = lease.ok;
    if (!lease.ok) {
      Json failure_rows = Json::Array();
      for (const std::string& failure : lease.failures) {
        failure_rows.Push(failure);
      }
      row["failures"] = std::move(failure_rows);
    }
    std::fprintf(human, "%-36s %3d runs  %s\n", "lease_reclaim", 1,
                 lease.ok ? "PASS" : "FAIL");
    for (const std::string& failure : lease.failures) {
      std::fprintf(human, "  FAIL: %s\n", failure.c_str());
    }
    report.AddResult(std::move(row));
    ++total_runs;
  }

  report.config()["total_runs"] = static_cast<int64_t>(total_runs);
  report.SetOk(all_ok);
  report.AttachMetrics(metrics);
  if (flags.json) std::printf("%s\n", report.Dump().c_str());
  std::fprintf(human, "%d run(s), %s\n", total_runs,
               all_ok ? "all invariants held" : "FAILURES");
  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace nonserial

int main(int argc, char** argv) {
  nonserial::Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      flags.json = true;
    } else if (arg.rfind("--runs-per-point=", 0) == 0) {
      flags.runs_per_point = std::atoi(arg.c_str() + 17);
    } else if (arg.rfind("--txs-per-run=", 0) == 0) {
      flags.txs_per_run = std::atoi(arg.c_str() + 14);
    } else if (arg.rfind("--seed=", 0) == 0) {
      flags.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--point=", 0) == 0) {
      flags.points.push_back(arg.substr(8));
    } else {
      return nonserial::Usage(argv[0]);
    }
  }
  if (flags.runs_per_point <= 0 || flags.txs_per_run <= 0) {
    return nonserial::Usage(argv[0]);
  }
  return nonserial::Run(flags);
}
