// Protocol trace: watch the Correct Execution Protocol think. Drives the
// controller directly (no simulator) through the paper's core scenario —
// a cooperating successor validated optimistically, re-assigned when its
// predecessor writes, and a second reader aborted for partial-order
// invalidation — and prints every protocol decision as it happens.
//
//   ./build/examples/protocol_trace

#include <cstdio>

#include "protocol/cep.h"
#include "protocol/trace.h"

using namespace nonserial;

namespace {

/// Prints events as they happen.
class PrintingObserver : public TraceSink {
 public:
  void OnEvent(const TraceEvent& event) override {
    std::printf("    | %s\n", event.ToString().c_str());
  }
};

TxProfile Profile(const char* name, Predicate input,
                  std::vector<int> preds = {}) {
  TxProfile profile;
  profile.name = name;
  profile.input = std::move(input);
  profile.predecessors = std::move(preds);
  return profile;
}

void Act(const char* what) { std::printf("%s\n", what); }

}  // namespace

int main() {
  VersionStore store({50});  // One design entity, initial value 50.
  CorrectExecutionProtocol cep(&store);
  PrintingObserver observer;
  cep.SetObserver(&observer);

  std::printf("Scenario: chief (tx0) precedes both helper (tx1) and "
              "latecomer (tx2) in P.\nEntity x starts at 50.\n\n");

  cep.Register(0, Profile("chief", Range(0, 0, 100)));
  cep.Register(1, Profile("helper", Range(0, 0, 100), {0}));
  cep.Register(2, Profile("latecomer", Range(0, 0, 100), {0}));

  Act("helper begins before the chief has produced anything:");
  (void)cep.Begin(1);

  Act("latecomer begins too, and immediately reads x (optimistically, the "
      "initial version):");
  (void)cep.Begin(2);
  Value v = 0;
  (void)cep.Read(2, 0, &v);

  Act("the chief begins and writes x := 80 — Figure 4 re-evaluation fires:");
  (void)cep.Begin(0);
  (void)cep.Write(0, 0, 80);
  cep.WriteDone(0, 0);
  std::printf("  (helper had not read x: silently re-assigned to the "
              "chief's version;\n   latecomer HAD read the stale version: "
              "partial-order invalidation)\n");

  Act("the simulator would now abort and restart the latecomer:");
  for (int tx : cep.TakeForcedAborts()) cep.Abort(tx);
  (void)cep.TakeWakeups();

  Act("helper reads x — it sees the predecessor's 80, as P demands:");
  (void)cep.Read(1, 0, &v);

  Act("helper tries to commit before the chief — it must wait:");
  (void)cep.Commit(1);

  Act("chief commits; helper retries and commits:");
  (void)cep.Commit(0);
  (void)cep.TakeWakeups();
  (void)cep.Commit(1);

  Act("latecomer restarts: predecessor domination now pins it to the "
      "chief's version:");
  (void)cep.Begin(2);
  (void)cep.Read(2, 0, &v);
  (void)cep.Commit(2);

  const ProtocolMetrics& m = *cep.metrics();
  std::printf("\nprotocol counters: validations=%lld reevals=%lld "
              "reassigns=%lld po_aborts=%lld\n",
              static_cast<long long>(m.validations.value()),
              static_cast<long long>(m.reevals.value()),
              static_cast<long long>(m.reassigns.value()),
              static_cast<long long>(m.po_aborts.value()));
  std::printf("final committed x = %lld\n",
              static_cast<long long>(store.LatestCommittedSnapshot()[0]));
  return 0;
}
