#include "workload/generators.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace nonserial {
namespace {

constexpr Value kLo = 0;
constexpr Value kHi = 100;
constexpr Value kInitial = 50;

/// clamp(e + delta, kLo, kHi) as an Expr.
Expr ClampedBump(EntityId e, Value delta) {
  return Expr::Min(Expr::Max(Expr::Add(Expr::Var(e), Expr::Const(delta)),
                             Expr::Const(kLo)),
                   Expr::Const(kHi));
}

ObjectSetList MakeGroups(int num_entities, int num_conjuncts) {
  ObjectSetList groups;
  int k = std::max(1, num_conjuncts);
  int block = (num_entities + k - 1) / k;
  for (int g = 0; g < k; ++g) {
    std::set<EntityId> object;
    for (int e = g * block; e < std::min(num_entities, (g + 1) * block);
         ++e) {
      object.insert(e);
    }
    if (!object.empty()) groups.push_back(std::move(object));
  }
  return groups;
}

Predicate BoundsPredicate(const std::vector<EntityId>& entities) {
  std::vector<Clause> clauses;
  for (EntityId e : entities) {
    clauses.push_back(Clause({EntityVsConst(e, CompareOp::kGe, kLo)}));
    clauses.push_back(Clause({EntityVsConst(e, CompareOp::kLe, kHi)}));
  }
  return Predicate(std::move(clauses));
}

}  // namespace

SimWorkload MakeDesignWorkload(const DesignWorkloadParams& params) {
  NONSERIAL_CHECK_GT(params.num_entities, 0);
  NONSERIAL_CHECK_GT(params.num_txs, 0);
  Rng rng(params.seed);
  SimWorkload workload;
  workload.initial.assign(params.num_entities, kInitial);
  workload.objects = MakeGroups(params.num_entities, params.num_conjuncts);

  // Per-transaction write sets and transitive predecessor sets, used to
  // keep relational input clauses away from predecessor-dominated entities
  // (the protocol pins a successor to its predecessors' versions; an input
  // clause those versions can falsify would never validate).
  std::vector<std::set<EntityId>> write_sets;
  std::vector<std::set<int>> ancestors;

  for (int i = 0; i < params.num_txs; ++i) {
    SimTx tx;
    tx.name = StrCat("designer", i);
    tx.arrival = i * params.arrival_spacing;
    tx.think_between_ops = params.think_time;

    // Working set: mostly one "home" group, occasionally elsewhere.
    const std::set<EntityId>& home =
        workload.objects[rng.Uniform(
            static_cast<uint32_t>(workload.objects.size()))];
    std::vector<EntityId> home_list(home.begin(), home.end());
    std::vector<EntityId> working_set;
    int want = std::min(params.reads_per_tx, params.num_entities);
    int guard = 0;
    while (static_cast<int>(working_set.size()) < want && guard++ < 1000) {
      EntityId e;
      if (rng.Bernoulli(params.cross_group_fraction)) {
        e = static_cast<EntityId>(
            rng.Uniform(static_cast<uint32_t>(params.num_entities)));
      } else {
        e = home_list[rng.Zipf(static_cast<uint32_t>(home_list.size()),
                               params.hot_theta)];
      }
      if (std::find(working_set.begin(), working_set.end(), e) ==
          working_set.end()) {
        working_set.push_back(e);
      }
    }

    // Cooperation: this designer may continue the work of an earlier one.
    // Chosen before the specification so relational clauses can avoid the
    // predecessors' write sets.
    std::set<int> my_ancestors;
    if (i > 0 && rng.Bernoulli(params.precedence_prob)) {
      int pred = static_cast<int>(rng.Uniform(static_cast<uint32_t>(i)));
      tx.predecessors.push_back(pred);
      my_ancestors = ancestors[pred];
      my_ancestors.insert(pred);
    }
    std::set<EntityId> dominated;
    for (int ancestor : my_ancestors) {
      dominated.insert(write_sets[ancestor].begin(),
                       write_sets[ancestor].end());
    }

    // Program: read the working set, then write back a subset. Each entity
    // is written at most once (its net design update).
    std::vector<EntityId> writes;
    for (EntityId e : working_set) {
      tx.steps.push_back(SimStep::Read(e));
      if (rng.Bernoulli(params.write_fraction)) writes.push_back(e);
    }
    for (EntityId e : writes) {
      Value delta = rng.UniformInt(-10, 10);
      tx.steps.push_back(SimStep::Write(e, ClampedBump(e, delta)));
    }

    // Specification. I_t bounds every read entity and occasionally relates
    // two of them (giving the version-assignment search real work); O_t
    // bounds every written entity. Both hold for any clamped update, so a
    // correct transaction never fails its own postcondition. Relational
    // clauses never mention predecessor-written entities: the partial order
    // pins those versions, and a clause they falsify would block the
    // transaction forever.
    tx.input = BoundsPredicate(working_set);
    if (rng.Bernoulli(params.relational_clause_prob)) {
      std::vector<EntityId> free;
      for (EntityId e : working_set) {
        if (!dominated.contains(e)) free.push_back(e);
      }
      if (free.size() >= 2) {
        EntityId a = free[0];
        EntityId b = free[1];
        tx.input.AddClause(
            Clause({EntityVsEntity(a, CompareOp::kLe, b),
                    EntityVsConst(a, CompareOp::kLe, kInitial)}));
      }
    }
    tx.output = BoundsPredicate(writes);

    write_sets.emplace_back(writes.begin(), writes.end());
    ancestors.push_back(std::move(my_ancestors));
    workload.txs.push_back(std::move(tx));
  }
  return workload;
}

SimWorkload MakeOltpWorkload(int num_txs, int num_entities, int num_conjuncts,
                             uint64_t seed) {
  DesignWorkloadParams params;
  params.num_txs = num_txs;
  params.num_entities = num_entities;
  params.num_conjuncts = num_conjuncts;
  params.reads_per_tx = 2;
  params.write_fraction = 1.0;
  params.think_time = 0;
  params.cross_group_fraction = 0.2;
  params.precedence_prob = 0.0;
  params.arrival_spacing = 2;
  params.seed = seed;
  SimWorkload workload = MakeDesignWorkload(params);
  for (size_t i = 0; i < workload.txs.size(); ++i) {
    workload.txs[i].name = StrCat("oltp", i);
  }
  return workload;
}

Predicate WorkloadConstraint(const SimWorkload& workload) {
  std::vector<EntityId> all;
  for (EntityId e = 0; e < static_cast<EntityId>(workload.initial.size());
       ++e) {
    all.push_back(e);
  }
  return BoundsPredicate(all);
}

}  // namespace nonserial
