// Shared building blocks of the allocation policies.
#pragma once

#include <span>
#include <vector>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "core/allocator.hpp"
#include "core/cost_model.hpp"
#include "topology/tree.hpp"

namespace commsched {

/// SLURM topology/tree search (§3.1): the lowest-level switch whose subtree
/// holds at least `num_nodes` free nodes; among equals at that level, the one
/// with the fewest free nodes (best-fit), ties broken by switch id.
/// Returns kInvalidSwitch when even the root cannot satisfy the request.
SwitchId find_lowest_level_switch(const ClusterState& state, int num_nodes);

/// Append the first `count` free nodes of `leaf` (ascending node id) to
/// `out`. Requires leaf_free(leaf) >= count.
void take_free_nodes(const ClusterState& state, SwitchId leaf, int count,
                     std::vector<NodeId>& out);

/// A per-leaf ordering key for order_fit_leaves.
using LeafKey = double (*)(const ClusterState& state, SwitchId leaf);

/// The topology/tree skeleton that stock SLURM and the paper's policies
/// share (§3.1): the leaves with free nodes under
/// find_lowest_level_switch(num_nodes) (just that leaf when the switch is a
/// leaf), written to `leaves` ordered by `key`, ascending or descending,
/// ties by switch id. Returns false, with `leaves` empty, when nothing fits.
bool order_fit_leaves(const ClusterState& state, int num_nodes, LeafKey key,
                      bool descending, std::vector<SwitchId>& leaves);

/// Append `num_nodes` free nodes to `out`, taking each leaf of `leaves` in
/// turn as far as it goes, lowest node ids first. Requires the leaves to
/// hold at least `num_nodes` free nodes between them.
void fill_leaves(const ClusterState& state, std::span<const SwitchId> leaves,
                 int num_nodes, std::vector<NodeId>& out);

/// Free nodes on `leaf`: stock best-fit's key and Algorithm 2's.
double free_count(const ClusterState& state, SwitchId leaf);

/// Paper Eq. 1: communication ratio of a leaf switch,
///   L_comm / L_busy + L_busy / L_nodes.
/// An idle leaf (L_busy == 0) has no communicating jobs, so the first term
/// is taken as 0 (the paper leaves the 0/0 case implicit).
double communication_ratio(const ClusterState& state, SwitchId leaf);

/// Price a candidate allocation through the shared profile cache: one
/// lookup (or build) of the profile of the allocation's canonical ShapeKey
/// for `pattern` at one rank per node, and one model.candidate_costs walk.
PricedPlacement price_candidate(const CostModel& model, CommCache& cache,
                                const ClusterState& state,
                                std::span<const NodeId> nodes,
                                bool comm_intensive, Pattern pattern,
                                CostWorkspace& workspace);

/// The sum of price_candidate that model's CostOptions select.
double profiled_candidate_cost(const CostModel& model, CommCache& cache,
                               const ClusterState& state,
                               std::span<const NodeId> nodes,
                               bool comm_intensive, Pattern pattern,
                               CostWorkspace& workspace);

/// The price of `nodes`, the placement `allocator` just returned for
/// `request` on `state`: allocator.last_priced() when the policy priced it,
/// else price_candidate. `model` must carry the policy's CostOptions and
/// `cache` be the cache it prices through; then either way the result is
/// the one walk's, bit for bit. The one way a start path prices a pick.
PricedPlacement price_selected(const Allocator& allocator,
                               const CostModel& model, CommCache& cache,
                               const ClusterState& state,
                               std::span<const NodeId> nodes,
                               const AllocationRequest& request,
                               CostWorkspace& workspace);

}  // namespace commsched
