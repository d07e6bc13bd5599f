// Post-allocation process mapping — the paper's §7 future work ("process
// mapping after node allocation can provide further improvements"),
// implemented as an optional extension.
//
// Given the node set an allocator selected, the rank -> node assignment still
// matters: recursive-doubling-style schedules pair rank-adjacent processes
// in their heaviest steps, so grouping consecutive ranks on the same leaf
// switch cuts inter-switch traffic without changing the allocation at all.
//
// Two levels are provided:
//   - switch_major_order: sort nodes by (leaf switch, node id) — O(p log p),
//     always safe, usually captures most of the benefit;
//   - improve_mapping: greedy pairwise-swap hill climbing on the Eq. 6 cost,
//     for small/medium jobs where the O(p^2) swap scan is affordable.
#pragma once

#include <span>
#include <vector>

#include "cluster/state.hpp"
#include "collectives/schedule.hpp"
#include "core/cost_model.hpp"
#include "topology/tree.hpp"

namespace commsched {

/// Reorder an allocation so ranks are contiguous per leaf switch (stable:
/// preserves relative order within a leaf and the leaves' first-appearance
/// order).
std::vector<NodeId> switch_major_order(const Tree& tree,
                                       std::span<const NodeId> nodes);

struct MappingOptions {
  /// Hill-climbing passes over all rank pairs (each pass is O(p^2) cost
  /// evaluations); the climb stops early when a pass finds no improvement.
  int max_passes = 3;
  /// Jobs larger than this skip the swap scan and only get
  /// switch_major_order (the scan would be O(p^3 log p) work overall).
  int max_swap_nodes = 128;
};

/// Minimize the Eq. 6 cost of `pattern` (one rank per node, base message
/// size `base_msize`) over rank orderings of `nodes`. Starts from
/// switch_major_order, then hill-climbs with pairwise swaps. Never returns
/// an ordering costlier than switch_major_order. Each ordering is priced
/// through its own LeafCommProfile, built uncached: the orderings a search
/// tries are one-off shapes that would only bloat a run's CommCache.
std::vector<NodeId> improve_mapping(const ClusterState& state,
                                    const CostModel& model, Pattern pattern,
                                    double base_msize,
                                    std::span<const NodeId> nodes,
                                    bool comm_intensive,
                                    const MappingOptions& options = {});

}  // namespace commsched
