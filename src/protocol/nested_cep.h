#ifndef NONSERIAL_PROTOCOL_NESTED_CEP_H_
#define NONSERIAL_PROTOCOL_NESTED_CEP_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "protocol/cep.h"
#include "protocol/controller.h"
#include "storage/version_store.h"

namespace nonserial {

/// A top-level transaction of the hierarchical protocol: a named scope with
/// its own specification (I_G, O_G) and position in the top-level partial
/// order. Its children are the flat simulator transactions mapped to it.
struct NestedGroup {
  std::string name;
  Predicate input;   ///< I_G over global entities.
  Predicate output;  ///< O_G over global entities.
  std::vector<int> predecessors;  ///< Group ids preceding this group.
};

/// Two-level hierarchical Correct Execution Protocol — the paper's nested
/// transaction management (Section 5.1: "A non-leaf transaction is
/// validated in exactly the same way as a database access transaction …
/// a version is released when the final subtransaction terminates", and the
/// note that a subtransaction's commit "is only relative to the parent").
///
/// Structure: one CorrectExecutionProtocol instance per *scope*.
///  - The top scope's transactions are the groups themselves. Starting a
///    group runs the top-level validation (Rv locks + version assignment
///    over I_G) and *reads* the assigned versions — so a predecessor
///    group's later write triggers the standard Figure 4 partial-order
///    invalidation at the group granularity.
///  - Each group runs a private CEP among its members over a scope-local
///    version store seeded with the group's assigned input state X(G).
///    Members see each other's versions immediately, but nothing of other
///    groups' uncommitted work.
///  - A member's commit is relative to the group: it becomes durable only
///    when the whole group commits. When the last member finishes, the
///    group's net effect is published to the parent store as the group's
///    writes and the top-level commit rules (group predecessors, assigned
///    authors, O_G) are applied. Until then members block in commit.
///  - A group-level abort (partial-order invalidation or cascade at the
///    top) resets the scope: every member is force-aborted and restarts;
///    the published state is rolled back — commits were only relative.
class NestedCepController : public ConcurrencyController {
 public:
  struct Options {
    std::vector<NestedGroup> groups;
    /// Flat transaction id -> group id. Every registered transaction must
    /// be mapped; a group commits once every transaction mapped to it has.
    std::vector<int> group_of_tx;
  };

  struct Stats {
    int64_t group_starts = 0;
    int64_t group_commits = 0;
    int64_t group_resets = 0;   ///< Group-level aborts (all members redone).
  };

  NestedCepController(VersionStore* top_store, Options options);

  std::string name() const override { return "Nested-CEP"; }
  void Register(int tx, TxProfile profile) override;
  ReqResult Begin(int tx) override;
  ReqResult Read(int tx, EntityId e, Value* out) override;
  ReqResult Write(int tx, EntityId e, Value value) override;
  void WriteDone(int tx, EntityId e) override;
  ReqResult Commit(int tx) override;
  void Abort(int tx) override;
  std::vector<int> TakeWakeups() override;
  std::vector<int> TakeForcedAborts() override;

  /// Propagates the sink into the top scope engine and every scope engine,
  /// including scopes opened later. Scope engines tag their events "CEP";
  /// this controller's own group-lifecycle events (kGroupStart /
  /// kGroupCommit / kGroupReset, with tx = group id) carry "Nested-CEP".
  void SetObserver(TraceSink* sink) override;

  const Stats& stats() const { return stats_; }

  /// Testing hooks.
  const CorrectExecutionProtocol& top_cep() const { return top_cep_; }
  bool GroupActive(int g) const;
  bool GroupCommitted(int g) const;

 private:
  enum class GroupPhase { kIdle, kActive, kCommitted };

  struct GroupState {
    GroupPhase phase = GroupPhase::kIdle;
    std::unique_ptr<VersionStore> store;  ///< Scope-local versions.
    std::unique_ptr<CorrectExecutionProtocol> cep;
    std::set<int> members;          ///< Every transaction mapped here.
    std::set<int> group_committed;  ///< Members committed relative to group.
    std::set<int> begin_waiters;    ///< Members blocked on the group start.
    ValueVector seed;               ///< X(G) the scope was seeded with.
    bool published = false;
  };

  int GroupOf(int tx) const;
  ReqResult EnsureGroupStarted(int g, int tx);
  ReqResult TryGroupCommit(int g);
  void ResetGroup(int g);
  void DrainChildren();

  VersionStore* top_store_;
  Options options_;
  CorrectExecutionProtocol top_cep_;
  std::vector<GroupState> groups_;
  std::vector<TxProfile> profiles_;
  std::set<int> registered_;  ///< Transactions profiles_ holds.
  std::set<int> wakeups_;
  std::set<int> forced_aborts_;
  Stats stats_;
};

}  // namespace nonserial

#endif  // NONSERIAL_PROTOCOL_NESTED_CEP_H_
