#ifndef NONSERIAL_WORKLOAD_NESTED_GEN_H_
#define NONSERIAL_WORKLOAD_NESTED_GEN_H_

#include <cstdint>

#include "protocol/nested_cep.h"
#include "sim/simulator.h"

namespace nonserial {

/// A flat simulator workload plus the two-level scope structure the
/// hierarchical protocol needs.
struct NestedWorkload {
  SimWorkload workload;
  NestedCepController::Options nested;
};

/// Parameters for the nested design workload: `num_projects` top-level
/// design transactions (the paper's Figure 1 children of the root), each
/// decomposed into `members_per_project` cooperating subtransactions over
/// the project's slice of the database. Projects may be chained by the
/// top-level partial order; members within a project may be chained by the
/// member-level partial order.
struct NestedWorkloadParams {
  int num_projects = 4;
  int members_per_project = 4;
  int entities_per_project = 6;
  int reads_per_member = 3;
  double write_fraction = 0.8;
  SimTime think_time = 100;
  double project_chain_prob = 0.3;   ///< P(project i follows project i-1).
  double member_chain_prob = 0.3;    ///< P(member follows an earlier member).
  SimTime arrival_spacing = 15;
  uint64_t seed = 1;
};

/// Builds the nested workload; entities live in [0, 100] with initial value
/// 50 and every write is a clamped bump, so all specifications hold for
/// correct executions.
NestedWorkload MakeNestedDesignWorkload(const NestedWorkloadParams& params);

}  // namespace nonserial

#endif  // NONSERIAL_WORKLOAD_NESTED_GEN_H_
