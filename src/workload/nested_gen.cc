#include "workload/nested_gen.h"

#include <algorithm>

#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"

namespace nonserial {
namespace {

constexpr Value kLo = 0;
constexpr Value kHi = 100;
constexpr Value kInitial = 50;

Expr ClampedBump(EntityId e, Value delta) {
  return Expr::Min(Expr::Max(Expr::Add(Expr::Var(e), Expr::Const(delta)),
                             Expr::Const(kLo)),
                   Expr::Const(kHi));
}

Predicate Bounds(const std::vector<EntityId>& entities) {
  Predicate p;
  for (EntityId e : entities) {
    p.AddClause(Clause({EntityVsConst(e, CompareOp::kGe, kLo)}));
    p.AddClause(Clause({EntityVsConst(e, CompareOp::kLe, kHi)}));
  }
  return p;
}

}  // namespace

NestedWorkload MakeNestedDesignWorkload(const NestedWorkloadParams& params) {
  NONSERIAL_CHECK_GT(params.num_projects, 0);
  NONSERIAL_CHECK_GT(params.members_per_project, 0);
  Rng rng(params.seed);
  NestedWorkload out;
  int num_entities = params.num_projects * params.entities_per_project;
  out.workload.initial.assign(num_entities, kInitial);

  for (int p = 0; p < params.num_projects; ++p) {
    // The project's slice of the database.
    std::vector<EntityId> slice;
    for (int e = 0; e < params.entities_per_project; ++e) {
      slice.push_back(p * params.entities_per_project + e);
    }
    out.workload.objects.push_back(
        std::set<EntityId>(slice.begin(), slice.end()));

    NestedGroup group;
    group.name = StrCat("project", p);
    group.input = Bounds(slice);
    group.output = Bounds(slice);
    if (p > 0 && rng.Bernoulli(params.project_chain_prob)) {
      group.predecessors.push_back(p - 1);
    }
    out.nested.groups.push_back(std::move(group));

    int base_tx = static_cast<int>(out.workload.txs.size());
    for (int m = 0; m < params.members_per_project; ++m) {
      SimTx tx;
      tx.name = StrCat("p", p, ".m", m);
      tx.arrival = (base_tx + m) * params.arrival_spacing;
      tx.think_between_ops = params.think_time;

      std::vector<EntityId> working_set;
      int want = std::min(params.reads_per_member,
                          static_cast<int>(slice.size()));
      while (static_cast<int>(working_set.size()) < want) {
        EntityId e = slice[rng.Uniform(static_cast<uint32_t>(slice.size()))];
        if (std::find(working_set.begin(), working_set.end(), e) ==
            working_set.end()) {
          working_set.push_back(e);
        }
      }
      std::vector<EntityId> writes;
      for (EntityId e : working_set) {
        tx.steps.push_back(SimStep::Read(e));
        if (rng.Bernoulli(params.write_fraction)) writes.push_back(e);
      }
      for (EntityId e : writes) {
        tx.steps.push_back(
            SimStep::Write(e, ClampedBump(e, rng.UniformInt(-10, 10))));
      }
      tx.input = Bounds(working_set);
      tx.output = Bounds(writes);
      if (m > 0 && rng.Bernoulli(params.member_chain_prob)) {
        tx.predecessors.push_back(
            base_tx + static_cast<int>(rng.Uniform(m)));
      }
      out.workload.txs.push_back(std::move(tx));
      out.nested.group_of_tx.push_back(p);
    }
  }
  return out;
}

}  // namespace nonserial
