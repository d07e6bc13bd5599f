// Pair-by-pair Eq. 6: the oracle for CostModel's profile kernel.
//
// No leaf aggregation, no memoization and no LeafCommProfile: every rank
// pair of every schedule step is priced through CostModel::effective_hops
// (Eqs. 2-5) and each step contributes its worst pair (Eq. 6). The profile
// kernel performs the same floating-point operations per distinct leaf pair
// and sums the steps in the same order, so the two agree bit for bit.
#pragma once

#include <span>

#include "cluster/state.hpp"
#include "collectives/schedule.hpp"
#include "core/cost_model.hpp"

namespace commsched {

/// Eq. 6 of `schedule` with `ranks_per_node` ranks on each of the ordered
/// `nodes` (SLURM block distribution: rank r runs on nodes[r /
/// ranks_per_node]), priced with `model`'s options. A communication-
/// intensive candidate overlays one L_comm count per rank when
/// include_candidate is set, as CostModel::candidate_cost does.
double oracle_candidate_cost(const CostModel& model, const ClusterState& state,
                             std::span<const NodeId> nodes, int ranks_per_node,
                             bool comm_intensive, const CommSchedule& schedule);

}  // namespace commsched
