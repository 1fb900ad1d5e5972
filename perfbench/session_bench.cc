// Session benchmark: four seeded, closed-loop, zero-think session workloads
// against the public Engine/Session and SessionServer/Client APIs, with a
// correctness gate on every round and an optional traced pass that times
// each call into a layer and reads the layers' own counters.
//
//   session_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--scale full|tiny] [--trace-out <file>]
//                 [--git-commit <id>] [--inject-fault]
//
// A run repeats *rounds* until --seconds have passed. A round builds a fresh
// engine (and server), runs a fixed transaction count per client, checks the
// outcome, and verifies the committed history. Rounds run a fixed count,
// never a fixed duration, because per-transaction cost grows with history
// length: a duration-bound round would measure a different history on a
// faster or slower machine. End-to-end figures are medians over rounds.
//
// With --trace 1 the rounds alternate untraced and traced; traced rounds
// record one span per call into a layer in per-client-thread buffers
// (merged after the clients join), and the per-layer report comes from
// those spans plus ProtocolMetrics, WalStats and VersionStore. The last line
// of standard output is the JSON result; a failed correctness gate prints it
// with "correct": false and exits 1.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/report.h"
#include "common/strings.h"
#include "core/verify.h"
#include "engine/engine.h"
#include "server/client.h"
#include "server/server.h"

namespace nonserial {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- workloads ---------------------------------------------------------------

enum class Shape { kPrivate, kHot };

/// One workload: the transaction shape, the client count and transport, and
/// the engine configuration. Rationale for each is in perfbench/README.md.
struct WorkloadDef {
  const char* name;
  Shape shape;
  bool wire;            ///< Clients talk to a SessionServer over TCP.
  int clients;
  int tx_per_client;    ///< Logical transactions per client per round.
  bool retire;          ///< EngineOptions::retire_terminated_tx.
  bool eval_cache;      ///< Attach an EvalCache to the protocol.
  bool wal;             ///< Group-commit WAL with a simulated flush.
};

constexpr WorkloadDef kWorkloads[] = {
    {"disjoint_sessions", Shape::kPrivate, false, 4, 3000, true, true, false},
    {"hot_constraint", Shape::kHot, false, 4, 1500, true, true, false},
    {"history_default", Shape::kPrivate, false, 1, 300, false, false, false},
    {"wire_durable", Shape::kPrivate, true, 4, 3000, true, true, true},
};

constexpr int kHotEntities = 16;
constexpr int kHotSpecsPerClient = 32;
constexpr Value kHotInitial = 50;
constexpr Value kHotCeiling = 100;  ///< Written values lie in [0, kHotCeiling).
constexpr int64_t kWalFlushUs = 100;
/// Attempts after which a logical transaction counts as failed.
constexpr int kMaxAttempts = 10'000;
constexpr int kPings = 500;

/// One logical transaction of a client's plan, fixed before timing starts.
struct TxPlan {
  bool read_only = false;
  int spec = 0;                 ///< Index into ClientPlan::specs.
  std::vector<EntityId> reads;  ///< In read order.
  /// Writes in program order. For the private shape the value is filled in
  /// at run time from the client's acked-update count (see RunClient).
  std::vector<std::pair<EntityId, Value>> writes;
};

struct ClientPlan {
  std::vector<engine::TxSpec> specs;
  std::vector<TxPlan> txs;
  std::vector<EntityId> owned;  ///< Private shape: the client's entities.
};

struct Plan {
  ValueVector initial;
  Predicate constraint;  ///< Database constraint for the history check.
  std::vector<ClientPlan> clients;
};

/// Private shape: client i owns entities 2i and 2i+1 with seeded initial
/// values. An update reads the first, then writes both to (initial + acked
/// updates + 1); a read-only transaction reads both. One in four is
/// read-only.
Plan MakePrivatePlan(const WorkloadDef& w, int tx_per_client, Rng* rng) {
  Plan plan;
  plan.initial.resize(static_cast<size_t>(w.clients) * 2);
  for (Value& v : plan.initial) v = rng->UniformInt(0, 999);
  for (size_t e = 0; e < plan.initial.size(); ++e) {
    plan.constraint.AddClause(
        Clause({EntityVsConst(static_cast<EntityId>(e), CompareOp::kGe, 0)}));
  }
  for (int c = 0; c < w.clients; ++c) {
    ClientPlan cp;
    EntityId e0 = static_cast<EntityId>(2 * c);
    EntityId e1 = e0 + 1;
    cp.owned = {e0, e1};
    engine::TxSpec spec;
    spec.name = StrCat("client", c);
    spec.input.AddClause(Clause({EntityVsConst(e0, CompareOp::kGe, 0)}));
    spec.input.AddClause(Clause({EntityVsConst(e1, CompareOp::kGe, 0)}));
    cp.specs.push_back(std::move(spec));
    for (int i = 0; i < tx_per_client; ++i) {
      TxPlan tx;
      tx.read_only = rng->Bernoulli(0.25);
      if (tx.read_only) {
        tx.reads = {e0, e1};
      } else {
        tx.reads = {e0};
        tx.writes = {{e0, 0}, {e1, 0}};
      }
      cp.txs.push_back(std::move(tx));
    }
    plan.clients.push_back(std::move(cp));
  }
  return plan;
}

/// Hot shape: 16 shared entities, all starting at 50. Each client draws a
/// pool of I_t over 4 seeded entities a, b, c, d with four conjuncts:
///   a >= L,  b <= U,  (a <= c | d >= M),  (c >= P | d <= Q)
/// with L <= 50 <= U, P <= 50 <= Q, so the initial version (always a
/// root-scope candidate) satisfies every I_t and no transaction can starve,
/// while written values in [0, 100) often violate one, so the search has to
/// walk past the latest versions. Three in four transactions read all four
/// entities and write two seeded values; one in four only reads.
Plan MakeHotPlan(const WorkloadDef& w, int tx_per_client, Rng* rng) {
  Plan plan;
  plan.initial.assign(kHotEntities, kHotInitial);
  for (EntityId e = 0; e < kHotEntities; ++e) {
    plan.constraint.AddClause(Clause({EntityVsConst(e, CompareOp::kGe, 0)}));
    plan.constraint.AddClause(
        Clause({EntityVsConst(e, CompareOp::kLe, kHotCeiling)}));
  }
  std::vector<EntityId> all(kHotEntities);
  for (EntityId e = 0; e < kHotEntities; ++e) all[e] = e;
  for (int c = 0; c < w.clients; ++c) {
    ClientPlan cp;
    std::vector<std::vector<EntityId>> spec_entities;
    for (int s = 0; s < kHotSpecsPerClient; ++s) {
      rng->Shuffle(&all);
      EntityId a = all[0], b = all[1], cc = all[2], d = all[3];
      engine::TxSpec spec;
      spec.name = StrCat("client", c, ".spec", s);
      spec.input.AddClause(Clause(
          {EntityVsConst(a, CompareOp::kGe, rng->UniformInt(10, 40))}));
      spec.input.AddClause(Clause(
          {EntityVsConst(b, CompareOp::kLe, rng->UniformInt(60, 90))}));
      spec.input.AddClause(
          Clause({EntityVsEntity(a, CompareOp::kLe, cc),
                  EntityVsConst(d, CompareOp::kGe, rng->UniformInt(50, 80))}));
      spec.input.AddClause(
          Clause({EntityVsConst(cc, CompareOp::kGe, rng->UniformInt(20, 50)),
                  EntityVsConst(d, CompareOp::kLe, rng->UniformInt(50, 80))}));
      cp.specs.push_back(std::move(spec));
      spec_entities.push_back({a, b, cc, d});
    }
    for (int i = 0; i < tx_per_client; ++i) {
      TxPlan tx;
      tx.spec = static_cast<int>(rng->Uniform(kHotSpecsPerClient));
      tx.read_only = rng->Bernoulli(0.25);
      tx.reads = spec_entities[tx.spec];
      if (!tx.read_only) {
        std::vector<EntityId> targets = tx.reads;
        rng->Shuffle(&targets);
        for (int k = 0; k < 2; ++k) {
          tx.writes.push_back({targets[k], rng->UniformInt(0, kHotCeiling - 1)});
        }
      }
      cp.txs.push_back(std::move(tx));
    }
    plan.clients.push_back(std::move(cp));
  }
  return plan;
}

// --- one client --------------------------------------------------------------

/// Layer calls the benchmark times. kTxUpdate/kTxReadOnly are the logical
/// transaction spans (first Begin to Commit ack); the others are their
/// children.
enum Op : uint8_t { kTxUpdate, kTxReadOnly, kBegin, kRead, kWrite, kCommit,
                    kNumOps };
constexpr const char* kOpNames[kNumOps] = {"tx.update", "tx.readonly", "begin",
                                           "read",      "write",       "commit"};

struct Span {
  int64_t start_ns;
  int64_t dur_ns;
  Op op;
};

/// In-process handle: one engine Session.
class SessionHandle {
 public:
  explicit SessionHandle(Engine* engine) : session_(engine->OpenSession()) {}
  Status Begin(const engine::TxSpec& spec) { return session_->Begin(spec); }
  int tx() const { return session_->tx(); }
  StatusOr<Value> Read(EntityId e) { return session_->Read(e); }
  Status Write(EntityId e, Value v) { return session_->Write(e, v); }
  Status Commit() { return session_->Commit(); }

 private:
  std::unique_ptr<Session> session_;
};

/// Wire handle: one TCP connection; the client's single I_t is staged once.
class WireHandle {
 public:
  Status Connect(int port, const engine::TxSpec& spec) {
    Status s = client_.Connect("127.0.0.1", port);
    if (!s.ok()) return s;
    name_ = spec.name;
    return client_.StagePredicates(spec.input, spec.output);
  }
  Status Begin(const engine::TxSpec&) {
    StatusOr<int> tx = client_.BeginStaged(name_, {});
    if (tx.ok()) tx_ = *tx;
    return tx.status();
  }
  int tx() const { return tx_; }
  StatusOr<Value> Read(EntityId e) { return client_.Read(e); }
  Status Write(EntityId e, Value v) { return client_.Write(e, v); }
  Status Commit() { return client_.Commit(); }

 private:
  Client client_;
  std::string name_;
  int tx_ = -1;
};

struct AckedTx {
  int tx;
  int plan_index;
};

/// Everything one client thread produces in a round. Owned by the thread
/// until join, then read by the main thread.
struct ClientResult {
  std::vector<int64_t> update_ns;    ///< Logical update latencies.
  std::vector<int64_t> readonly_ns;  ///< Logical read-only latencies.
  std::vector<int64_t> tx_ns;        ///< Every logical latency, in order.
  std::vector<AckedTx> acked;
  std::vector<Span> spans;           ///< Traced rounds only.
  int64_t attempts = 0;
  int64_t failed = 0;
  int64_t acked_updates = 0;         ///< Private shape: the owner's ledger.
  int64_t end_ns = 0;
  std::string error;                 ///< First correctness or transport error.
};

/// Runs one client's plan closed-loop: each logical transaction retries
/// (Begin again) after an abort until it commits, and the next one starts
/// only after the Commit ack.
template <typename Handle>
void RunClient(const Plan& plan, int client, Handle* h, bool traced,
               ClientResult* out) {
  const ClientPlan& cp = plan.clients[client];
  if (traced) out->spans.reserve(cp.txs.size() * 6);
  auto timed = [&](Op op, auto&& call) {
    if (!traced) return call();
    int64_t t0 = NowNs();
    auto result = call();
    out->spans.push_back({t0, NowNs() - t0, op});
    return result;
  };
  for (size_t i = 0; i < cp.txs.size() && out->error.empty(); ++i) {
    const TxPlan& tp = cp.txs[i];
    const engine::TxSpec& spec = cp.specs[tp.spec];
    int64_t t0 = NowNs();
    bool committed = false;
    for (int attempt = 0; attempt < kMaxAttempts && !committed; ++attempt) {
      ++out->attempts;
      Status s = timed(kBegin, [&] { return h->Begin(spec); });
      if (s.code() == StatusCode::kAborted ||
          s.code() == StatusCode::kResourceExhausted) {
        continue;
      }
      if (!s.ok()) {
        out->error = StrCat("begin: ", s.ToString());
        break;
      }
      bool aborted = false;
      for (EntityId e : tp.reads) {
        StatusOr<Value> v = timed(kRead, [&] { return h->Read(e); });
        if (v.status().code() == StatusCode::kAborted) {
          aborted = true;
          break;
        }
        if (!v.ok()) {
          out->error = StrCat("read: ", v.status().ToString());
          break;
        }
        // A private entity only ever holds values its owner wrote, so a
        // read outside [initial, initial + acked updates] is garbage.
        if (!cp.owned.empty() &&
            (*v < plan.initial[e] || *v > plan.initial[e] + out->acked_updates)) {
          out->error = StrCat("read of entity ", e, " returned ", *v,
                              ", outside the owner's written range");
          break;
        }
      }
      if (!out->error.empty()) break;
      if (aborted) continue;
      for (const auto& [e, planned] : tp.writes) {
        Value v = cp.owned.empty() ? planned
                                   : plan.initial[e] + out->acked_updates + 1;
        s = timed(kWrite, [&] { return h->Write(e, v); });
        if (!s.ok()) break;
      }
      if (s.code() == StatusCode::kAborted) continue;
      if (!s.ok()) {
        out->error = StrCat("write: ", s.ToString());
        break;
      }
      s = timed(kCommit, [&] { return h->Commit(); });
      if (s.code() == StatusCode::kAborted) continue;
      if (!s.ok()) {
        out->error = StrCat("commit: ", s.ToString());
        break;
      }
      committed = true;
    }
    if (!committed) {
      ++out->failed;
      continue;
    }
    int64_t dur = NowNs() - t0;
    (tp.read_only ? out->readonly_ns : out->update_ns).push_back(dur);
    out->tx_ns.push_back(dur);
    if (traced) {
      out->spans.push_back({t0, dur, tp.read_only ? kTxReadOnly : kTxUpdate});
    }
    out->acked.push_back({h->tx(), static_cast<int>(i)});
    if (!tp.read_only) ++out->acked_updates;
  }
  out->end_ns = NowNs();
}

// --- one round ---------------------------------------------------------------

struct RoundResult {
  bool traced = false;
  double setup_s = 0;
  double wall_s = 0;
  double verify_s = 0;
  int64_t committed = 0;
  int64_t attempts = 0;
  int64_t attempted = 0;  ///< Logical transactions attempted.
  int64_t failed = 0;
  int64_t start_ns = 0;
  std::vector<std::string> errors;
  std::vector<ClientResult> clients;
  // Traced rounds only.
  std::vector<int64_t> ping_ns;
  double versions_per_entity = 0;
  double recover_s = 0;
  int64_t wal_bytes = 0;
};

/// Checks the round's outcome and verifies its committed history.
/// `records` are the protocol's (in-process) or the WAL's records, indexed
/// by transaction id; `final_state` is the committed snapshot they must
/// explain.
void CheckRound(const Plan& plan,
                const std::vector<CorrectExecutionProtocol::TxRecord>& records,
                const ValueVector& final_state, bool inject_fault,
                RoundResult* r) {
  auto fail = [&](std::string msg) { r->errors.push_back(std::move(msg)); };
  if (inject_fault && !r->clients[0].acked.empty()) {
    // Self-test seam: forget client 0's last acked commit, as a lost ack or
    // a dropped ledger entry would. Every workload's gate must catch it.
    ClientResult& c = r->clients[0];
    if (!plan.clients[0].txs[c.acked.back().plan_index].read_only) {
      --c.acked_updates;
    }
    c.acked.pop_back();
  }
  // Acked commits must equal committed records, one for one.
  int64_t committed_records = 0;
  for (const auto& rec : records) committed_records += rec.committed ? 1 : 0;
  int64_t acked = 0;
  std::set<int> acked_ids;
  for (const ClientResult& c : r->clients) {
    acked += static_cast<int64_t>(c.acked.size());
    for (const AckedTx& a : c.acked) {
      if (!acked_ids.insert(a.tx).second) {
        fail(StrCat("transaction ", a.tx, " acked twice"));
      }
      if (a.tx < 0 || a.tx >= static_cast<int>(records.size()) ||
          !records[a.tx].committed) {
        fail(StrCat("acked transaction ", a.tx, " has no committed record"));
      }
    }
  }
  if (acked != committed_records) {
    fail(StrCat(acked, " commits acked but ", committed_records,
                " committed records"));
  }
  // Final values: a private entity holds initial + its owner's acked
  // updates (a lost or duplicated update moves it); a shared entity holds
  // its initial value or a value some acked commit wrote to it.
  std::vector<std::set<Value>> written(final_state.size());
  for (size_t c = 0; c < r->clients.size(); ++c) {
    const ClientPlan& cp = plan.clients[c];
    int64_t ledger = r->clients[c].acked_updates;
    for (EntityId e : cp.owned) {
      if (final_state[e] != plan.initial[e] + ledger) {
        fail(StrCat("entity ", e, " ends at ", final_state[e], ", expected ",
                    plan.initial[e] + ledger));
      }
    }
    for (const AckedTx& a : r->clients[c].acked) {
      for (const auto& [e, v] : cp.txs[a.plan_index].writes) {
        written[e].insert(v);
      }
    }
  }
  if (plan.clients[0].owned.empty()) {
    for (size_t e = 0; e < final_state.size(); ++e) {
      if (final_state[e] != plan.initial[e] && !written[e].count(final_state[e])) {
        fail(StrCat("entity ", e, " ends at ", final_state[e],
                    ", a value no acked commit wrote"));
      }
    }
  }
  // Theorem 2 re-check of the committed history (record-level, no cache).
  SimWorkload workload;
  workload.initial = plan.initial;
  workload.txs.resize(records.size());
  for (size_t c = 0; c < r->clients.size(); ++c) {
    for (const AckedTx& a : r->clients[c].acked) {
      if (a.tx < 0 || a.tx >= static_cast<int>(records.size())) continue;
      const engine::TxSpec& spec =
          plan.clients[c].specs[plan.clients[c].txs[a.plan_index].spec];
      workload.txs[a.tx].name = spec.name;
      workload.txs[a.tx].input = spec.input;
      workload.txs[a.tx].output = spec.output;
    }
  }
  Clock::time_point t = Clock::now();
  Status verify =
      VerifyCepHistory(workload, records, final_state, plan.constraint);
  r->verify_s = SecondsSince(t);
  if (!verify.ok()) fail(StrCat("history check: ", verify.ToString()));
}

/// Starts one thread per client, each building its handle with
/// `make_handle`; set-up ends when every client is ready, and the clock
/// starts when all of them are released together.
template <typename MakeHandle>
void DriveClients(const Plan& plan, bool traced, MakeHandle make_handle,
                  Clock::time_point setup_start, RoundResult* r) {
  int n = static_cast<int>(plan.clients.size());
  r->clients.resize(n);
  std::latch ready(n);
  std::latch go(1);
  std::vector<std::thread> threads;
  for (int c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      ClientResult* out = &r->clients[c];
      auto h = make_handle(c, out);
      ready.count_down();
      go.wait();
      if (out->error.empty()) RunClient(plan, c, h.get(), traced, out);
    });
  }
  ready.wait();
  r->setup_s = SecondsSince(setup_start);
  r->start_ns = NowNs();
  go.count_down();
  for (std::thread& t : threads) t.join();
  int64_t end_ns = r->start_ns;
  for (const ClientResult& c : r->clients) {
    end_ns = std::max(end_ns, c.end_ns);
    if (!c.error.empty()) r->errors.push_back(c.error);
    r->committed += static_cast<int64_t>(c.acked.size());
    r->attempts += c.attempts;
    r->failed += c.failed;
  }
  r->wall_s = static_cast<double>(end_ns - r->start_ns) * 1e-9;
}

/// One round on a fresh engine. Layer counters accumulate into `metrics`,
/// which a traced run shares across its traced rounds.
std::unique_ptr<RoundResult> RunRound(const WorkloadDef& w, const Plan& plan,
                                      ProtocolMetrics* metrics, bool traced,
                                      bool inject_fault) {
  auto r = std::make_unique<RoundResult>();
  r->traced = traced;
  for (const ClientPlan& cp : plan.clients) {
    r->attempted += static_cast<int64_t>(cp.txs.size());
  }
  Clock::time_point setup_start = Clock::now();
  EvalCache cache(static_cast<int>(plan.initial.size()));
  std::unique_ptr<WriteAheadLog> wal;
  EngineOptions options;
  options.initial = plan.initial;
  options.protocol.metrics = metrics;
  options.retire_terminated_tx = w.retire;
  if (w.eval_cache) options.protocol.eval_cache = &cache;
  if (w.wal) {
    wal = std::make_unique<WriteAheadLog>(plan.initial);
    options.wal = wal.get();
    options.wal_group_commit = true;
    options.wal_flush_us = kWalFlushUs;
  }
  Engine engine(std::move(options));
  ScopedEngineShutdown engine_guard(&engine);
  std::unique_ptr<SessionServer> server;

  if (w.wire) {
    server = std::make_unique<SessionServer>(&engine, ServerOptions{});
    Status started = server->Start();
    if (!started.ok()) {
      r->errors.push_back(StrCat("server start: ", started.ToString()));
      return r;
    }
    DriveClients(
        plan, traced,
        [&](int c, ClientResult* out) {
          auto h = std::make_unique<WireHandle>();
          Status s = h->Connect(server->port(), plan.clients[c].specs[0]);
          if (!s.ok()) out->error = StrCat("connect: ", s.ToString());
          return h;
        },
        setup_start, r.get());
    if (traced) {
      // The idle round trip, after the load: the floor of the wire path.
      Client pinger;
      if (pinger.Connect("127.0.0.1", server->port()).ok()) {
        for (int i = 0; i < kPings; ++i) {
          int64_t t0 = NowNs();
          if (!pinger.Ping(i).ok()) break;
          r->ping_ns.push_back(NowNs() - t0);
        }
      }
    }
  } else {
    DriveClients(
        plan, traced,
        [&](int, ClientResult*) {
          return std::make_unique<SessionHandle>(&engine);
        },
        setup_start, r.get());
  }
  engine.Shutdown();
  if (server != nullptr) server->Stop();
  ValueVector final_state = engine.store()->LatestCommittedSnapshot();
  if (traced) {
    r->versions_per_entity =
        static_cast<double>(engine.store()->TotalLiveVersions()) /
        static_cast<double>(plan.initial.size());
  }
  if (wal == nullptr) {
    CheckRound(plan, engine.cep()->records(), final_state, inject_fault,
               r.get());
    return r;
  }
  // Durability: recovery must return every acked commit and the store's
  // own committed snapshot; the history check then runs on what the log
  // alone reconstructs.
  r->wal_bytes = wal->stats().bytes;
  Clock::time_point t = Clock::now();
  RecoveryResult rec = wal->Recover();
  r->recover_s = SecondsSince(t);
  if (!rec.status.ok()) {
    r->errors.push_back(StrCat("recovery: ", rec.status.ToString()));
    return r;
  }
  if (rec.store->LatestCommittedSnapshot() != final_state) {
    r->errors.push_back("recovered snapshot differs from the store's");
  }
  int max_tx = -1;
  for (const RecoveredTx& tx : rec.committed) max_tx = std::max(max_tx, tx.tx);
  std::vector<CorrectExecutionProtocol::TxRecord> records(max_tx + 1);
  for (const RecoveredTx& tx : rec.committed) {
    CorrectExecutionProtocol::TxRecord& record = records[tx.tx];
    if (record.committed) {
      r->errors.push_back(StrCat("transaction ", tx.tx, " recovered twice"));
    }
    record.name = tx.name;
    record.input_state = tx.input_state;
    record.feeder_txs.insert(tx.feeders.begin(), tx.feeders.end());
    record.writes = tx.writes;
    record.committed = true;
  }
  CheckRound(plan, records, final_state, inject_fault, r.get());
  return r;
}

// --- statistics --------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
double PercentileUs(std::vector<int64_t>* v, double p) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v->size())));
  size_t idx = std::min(v->size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v->begin(), v->begin() + static_cast<long>(idx), v->end());
  return static_cast<double>((*v)[idx]) * 1e-3;
}

double CommitsPerSecond(const RoundResult& r) {
  return Ratio(static_cast<double>(r.committed), r.wall_s);
}

/// Last-tenth over first-tenth mean logical latency, pooled over clients.
double CostGrowth(const RoundResult& r) {
  double first = 0, last = 0;
  for (const ClientResult& c : r.clients) {
    size_t tenth = c.tx_ns.size() / 10;
    for (size_t i = 0; i < tenth; ++i) {
      first += static_cast<double>(c.tx_ns[i]);
      last += static_cast<double>(c.tx_ns[c.tx_ns.size() - 1 - i]);
    }
  }
  return Ratio(last, first);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// Latency percentiles are taken per round and reported as the median over
/// rounds: a burst of outside interference then spoils one round's figure
/// instead of filling the pooled tail of the whole run.
std::vector<Metric> EndToEnd(const std::vector<const RoundResult*>& rounds) {
  std::vector<double> cps, setup, verify, update50, update99, readonly50,
      readonly99;
  int64_t attempts = 0, committed = 0;
  for (const RoundResult* r : rounds) {
    cps.push_back(CommitsPerSecond(*r));
    setup.push_back(r->setup_s);
    verify.push_back(r->verify_s);
    attempts += r->attempts;
    committed += r->committed;
    std::vector<int64_t> update, readonly;
    for (const ClientResult& c : r->clients) {
      update.insert(update.end(), c.update_ns.begin(), c.update_ns.end());
      readonly.insert(readonly.end(), c.readonly_ns.begin(), c.readonly_ns.end());
    }
    if (!update.empty()) {
      update50.push_back(PercentileUs(&update, 0.50));
      update99.push_back(PercentileUs(&update, 0.99));
    }
    if (!readonly.empty()) {
      readonly50.push_back(PercentileUs(&readonly, 0.50));
      readonly99.push_back(PercentileUs(&readonly, 0.99));
    }
  }
  return {
      {"commits_per_s", Median(cps), "1/s"},
      {"update_p50_us", Median(update50), "us"},
      {"update_p99_us", Median(update99), "us"},
      {"readonly_p50_us", Median(readonly50), "us"},
      {"readonly_p99_us", Median(readonly99), "us"},
      {"attempts_per_commit", Ratio(static_cast<double>(attempts),
                                    static_cast<double>(committed)), "ratio"},
      {"verify_s", Median(verify), "s"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Per-layer report: `m` holds the layer counters of the traced rounds,
/// whose spans give the call times; `untraced` supplies the baseline
/// throughput for trace.overhead.
std::vector<Metric> PerLayer(const WorkloadDef& w, const ProtocolMetrics& m,
                             const std::vector<const RoundResult*>& traced,
                             const std::vector<const RoundResult*>& untraced) {
  std::vector<int64_t> ops[kNumOps];
  std::vector<int64_t> pings;
  std::vector<double> growth, versions, recover, traced_cps, untraced_cps;
  double committed = 0, wal_bytes = 0, tx_time = 0, op_time = 0;
  for (const RoundResult* r : traced) {
    committed += static_cast<double>(r->committed);
    wal_bytes += static_cast<double>(r->wal_bytes);
    growth.push_back(CostGrowth(*r));
    versions.push_back(r->versions_per_entity);
    recover.push_back(r->recover_s);
    traced_cps.push_back(CommitsPerSecond(*r));
    pings.insert(pings.end(), r->ping_ns.begin(), r->ping_ns.end());
    for (const ClientResult& c : r->clients) {
      for (const Span& s : c.spans) {
        ops[s.op].push_back(s.dur_ns);
        double d = static_cast<double>(s.dur_ns);
        (s.op == kTxUpdate || s.op == kTxReadOnly ? tx_time : op_time) += d;
      }
    }
  }
  for (const RoundResult* r : untraced) untraced_cps.push_back(CommitsPerSecond(*r));
  auto per_tx = [&](int64_t n) {
    return Ratio(static_cast<double>(n), committed);
  };
  auto ratio = [](int64_t num, int64_t den) {
    return Ratio(static_cast<double>(num), static_cast<double>(den));
  };
  // Engine calls are timed directly in-process; over the wire the same
  // calls are Client round trips and land under server.* (0 elsewhere).
  auto call = [&](bool wire_metric, Op id, double p) {
    return wire_metric == w.wire ? PercentileUs(&ops[id], p) : 0.0;
  };
  int64_t lookups = m.cache_hits.value() + m.cache_misses.value();
  return {
      {"engine.begin_p50_us", call(false, kBegin, 0.50), "us"},
      {"engine.begin_p99_us", call(false, kBegin, 0.99), "us"},
      {"engine.read_p50_us", call(false, kRead, 0.50), "us"},
      {"engine.write_p50_us", call(false, kWrite, 0.50), "us"},
      {"engine.commit_p50_us", call(false, kCommit, 0.50), "us"},
      {"engine.commit_p99_us", call(false, kCommit, 0.99), "us"},
      {"engine.blocked_us_per_tx", per_tx(m.wait_micros.sum()), "us/tx"},
      {"engine.parks_per_tx", per_tx(m.wait_micros.count()), "1/tx"},
      {"engine.cost_growth", Median(growth), "ratio"},
      {"engine.retired_share", per_tx(m.engine_retired_tx.value()), "ratio"},
      {"cep.rescans_per_validation",
       ratio(m.validation_rescans.value(), m.validations.value()), "ratio"},
      {"cep.starved", per_tx(m.validation_starved.value()), "1/tx"},
      {"cep.search_nodes_mean", m.search_nodes.mean(), "count"},
      {"cep.reevals_per_tx", per_tx(m.reevals.value()), "1/tx"},
      {"cep.reassigns_per_tx", per_tx(m.reassigns.value()), "1/tx"},
      {"cep.commit_waits_per_tx", per_tx(m.commit_waits.value()), "1/tx"},
      {"cep.aborts_po", per_tx(m.po_aborts.value()), "1/tx"},
      {"cep.aborts_cascade", per_tx(m.cascade_aborts.value()), "1/tx"},
      {"cep.aborts_output", per_tx(m.output_aborts.value()), "1/tx"},
      {"cep.aborts_deadline", per_tx(m.deadline_aborts.value()), "1/tx"},
      {"eval_cache.hit_ratio", ratio(m.cache_hits.value(), lookups), "ratio"},
      {"eval_cache.lookups_per_tx", per_tx(lookups), "1/tx"},
      {"eval_cache.invalidations_per_tx",
       per_tx(m.cache_invalidations.value()), "1/tx"},
      {"cep.delta_rescans", per_tx(m.delta_rescans.value()), "1/tx"},
      {"cep.delta_fallbacks", per_tx(m.delta_fallbacks.value()), "1/tx"},
      {"store.versions_per_entity", Median(versions), "count"},
      {"wal.commits_per_flush",
       ratio(m.group_commit_commits.value(), m.wal_device_flushes.value()),
       "ratio"},
      {"wal.frames_per_batch",
       ratio(m.group_commit_frames.value(), m.group_commit_batches.value()),
       "ratio"},
      {"wal.stall_share",
       ratio(m.group_commit_stalls.value(), m.group_commit_commits.value()),
       "ratio"},
      {"wal.bytes_per_commit", Ratio(wal_bytes, committed), "B"},
      {"wal.recover_s", Median(recover), "s"},
      {"server.begin_p50_us", call(true, kBegin, 0.50), "us"},
      {"server.read_p50_us", call(true, kRead, 0.50), "us"},
      {"server.write_p50_us", call(true, kWrite, 0.50), "us"},
      {"server.commit_p50_us", call(true, kCommit, 0.50), "us"},
      {"server.commit_p99_us", call(true, kCommit, 0.99), "us"},
      {"server.ping_p50_us", PercentileUs(&pings, 0.50), "us"},
      {"server.queue_depth_p99",
       static_cast<double>(m.server_queue_depth.ApproxPercentile(0.99)),
       "count"},
      {"server.inflight_p99",
       static_cast<double>(m.server_inflight.ApproxPercentile(0.99)), "count"},
      {"server.shed", per_tx(m.server_shed.value()), "1/tx"},
      {"server.wire_errors", per_tx(m.server_wire_errors.value()), "1/tx"},
      {"trace.overhead", Ratio(Median(untraced_cps), Median(traced_cps)) - 1,
       "ratio"},
      {"trace.coverage", Ratio(op_time, tx_time), "ratio"},
      {"trace.self_us_per_tx", Ratio((tx_time - op_time) * 1e-3, committed),
       "us"},
  };
}

/// Writes the last traced round as a Chrome trace (one lane per client),
/// capped so a long round stays loadable.
void WriteChromeTrace(const RoundResult& r, const std::string& path) {
  constexpr size_t kMaxSpans = 200'000;
  SpanTimeline timeline;
  size_t written = 0;
  for (size_t c = 0; c < r.clients.size(); ++c) {
    timeline.SetLaneName(static_cast<int>(c), StrCat("client ", c));
    for (const Span& s : r.clients[c].spans) {
      if (written++ >= kMaxSpans) break;
      PhaseSpan p;
      p.lane = static_cast<int>(c);
      p.phase = kOpNames[s.op];
      p.start_us = (s.start_ns - r.start_ns) / 1000;
      p.dur_us = s.dur_ns / 1000;
      timeline.Add(p);
    }
  }
  std::ofstream out(path);
  out << ChromeTraceJson(timeline).Dump(0) << "\n";
}

// --- main --------------------------------------------------------------------

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool inject_fault = false;
  std::string trace_out;
  std::string git_commit = "unknown";
};

bool ParseFlags(int argc, char** argv, Flags* f) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--inject-fault") {
      f->inject_fault = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (a == "--workload") {
      f->workload = v;
    } else if (a == "--seed") {
      f->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      f->seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      f->trace = v == "1";
    } else if (a == "--scale") {
      if (v != "full" && v != "tiny") return false;
      f->tiny = v == "tiny";
    } else if (a == "--trace-out") {
      f->trace_out = v;
    } else if (a == "--git-commit") {
      f->git_commit = v;
    } else {
      return false;
    }
  }
  return !f->workload.empty();
}

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: session_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--scale full|tiny] "
                 "[--trace-out <file>] [--git-commit <id>] [--inject-fault]\n");
    return 2;
  }
  const WorkloadDef* w = nullptr;
  for (const WorkloadDef& d : kWorkloads) {
    if (flags.workload == d.name) w = &d;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", flags.workload.c_str());
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to report: assertions are enabled\n");
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "refusing to report from a '%s' build; use Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  int tx_per_client =
      flags.tiny ? std::max(8, w->tx_per_client / 50) : w->tx_per_client;
  // One seeded stream draws a fresh plan for every round, before the round
  // is timed. Fresh plans average out where read-only transactions fall in
  // a round, which matters when cost grows along the round.
  Rng rng(flags.seed);
  ProtocolMetrics traced_metrics, untraced_metrics;
  // Untraced runs time every round; traced runs alternate, starting
  // untraced, so both kinds see the same mix of early and late rounds.
  int min_rounds = flags.trace ? 2 : 1;
  std::vector<std::unique_ptr<RoundResult>> rounds;
  std::vector<std::string> errors;
  Clock::time_point run_start = Clock::now();
  while (static_cast<int>(rounds.size()) < min_rounds ||
         SecondsSince(run_start) < flags.seconds) {
    bool traced = flags.trace && rounds.size() % 2 == 1;
    Plan plan = w->shape == Shape::kHot
                    ? MakeHotPlan(*w, tx_per_client, &rng)
                    : MakePrivatePlan(*w, tx_per_client, &rng);
    rounds.push_back(RunRound(*w, plan,
                              traced ? &traced_metrics : &untraced_metrics,
                              traced, flags.inject_fault));
    const RoundResult& r = *rounds.back();
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
    if (!errors.empty()) break;
  }

  std::vector<const RoundResult*> traced, untraced;
  int64_t attempted = 0, failed = 0;
  for (const auto& r : rounds) {
    (r->traced ? traced : untraced).push_back(r.get());
    attempted += r->attempted;
    failed += r->failed;
  }
  std::vector<Metric> metrics =
      flags.trace ? PerLayer(*w, traced_metrics, traced, untraced)
                  : EndToEnd(untraced);
  if (!traced.empty() && !flags.trace_out.empty()) {
    WriteChromeTrace(*traced.back(), flags.trace_out);
  }

  std::printf("run build_type=%s compiler=\"%s\" cores=%u git=%s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              std::thread::hardware_concurrency(), flags.git_commit.c_str());
  std::printf("run workload=%s seed=%llu clients=%d tx_per_client=%d "
              "rounds=%zu traced_rounds=%zu transactions=%lld failed=%lld\n",
              w->name, static_cast<unsigned long long>(flags.seed), w->clients,
              tx_per_client, rounds.size(), traced.size(),
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& r = *rounds[i];
    std::printf("round %zu traced=%d committed=%lld wall_s=%.4f "
                "commits_per_s=%.1f setup_s=%.6f verify_s=%.4f\n",
                i, r.traced ? 1 : 0, static_cast<long long>(r.committed),
                r.wall_s, CommitsPerSecond(r), r.setup_s, r.verify_s);
  }
  for (const std::string& e : errors) std::printf("FAILED %s\n", e.c_str());
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  // Written by hand rather than through Json::Dump, which keeps only six
  // significant digits; metric names and units need no escaping.
  bool correct = errors.empty();
  std::string json = StrCat("{\"correct\": ", correct ? "true" : "false",
                            ", \"attempted\": ", attempted,
                            ", \"failed\": ", failed, ", \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[32];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += StrCat(i == 0 ? "" : ", ", "\"", metrics[i].name,
                   "\": {\"value\": ", value, ", \"unit\": \"",
                   metrics[i].unit, "\"}");
  }
  std::printf("%s}}\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace nonserial

int main(int argc, char** argv) { return nonserial::Main(argc, argv); }
