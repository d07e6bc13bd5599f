#include "core/allocator_common.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace commsched {

// hot-path: no-alloc
SwitchId find_lowest_level_switch(const ClusterState& state, int num_nodes) {
  COMMSCHED_ASSERT_GE_MSG(num_nodes, 1, "request must be positive");
  const Tree& tree = state.tree();
  for (int lvl = 1; lvl <= tree.depth(); ++lvl) {
    SwitchId best = kInvalidSwitch;
    for (const SwitchId s : tree.switches_at_level(lvl)) {
      const int free = state.free_under(s);
      if (free < num_nodes) continue;
      if (best == kInvalidSwitch || free < state.free_under(best)) best = s;
    }
    if (best != kInvalidSwitch) return best;
  }
  return kInvalidSwitch;
}

// hot-path: no-alloc
bool order_fit_leaves(const ClusterState& state, int num_nodes, LeafKey key,
                      bool descending, std::vector<SwitchId>& leaves) {
  leaves.clear();
  const SwitchId top = find_lowest_level_switch(state, num_nodes);
  if (top == kInvalidSwitch) return false;
  for (const SwitchId l : state.tree().leaves_under(top))
    // contract-trusted: no-alloc: member scratch reuses capacity across calls
    if (state.leaf_free(l) > 0) leaves.push_back(l);
  // The switch-id tie-break makes the order total, so std::sort (which,
  // unlike std::stable_sort, needs no temporary buffer) is deterministic.
  std::sort(leaves.begin(), leaves.end(), [&](SwitchId a, SwitchId b) {
    const double ka = key(state, a);
    const double kb = key(state, b);
    if (ka != kb) return descending ? ka > kb : ka < kb;
    return a < b;
  });
  return true;
}

// hot-path: no-alloc
void fill_leaves(const ClusterState& state, std::span<const SwitchId> leaves,
                 int num_nodes, std::vector<NodeId>& out) {
  // contract-trusted: no-alloc: caller scratch reuses reserved capacity
  out.reserve(out.size() + static_cast<std::size_t>(num_nodes));
  for (const SwitchId leaf : leaves) {
    if (num_nodes == 0) return;
    const int take = std::min(state.leaf_free(leaf), num_nodes);
    take_free_nodes(state, leaf, take, out);
    num_nodes -= take;
  }
  COMMSCHED_ASSERT_EQ_MSG(num_nodes, 0,
                          "lowest-level switch reported enough free nodes "
                          "but leaves did not provide them");
}

// hot-path: no-alloc
double free_count(const ClusterState& state, SwitchId leaf) {
  return state.leaf_free(leaf);
}

// hot-path: no-alloc
double communication_ratio(const ClusterState& state, SwitchId leaf) {
  const double nodes = state.leaf_nodes(leaf);
  const double busy = state.leaf_busy(leaf);
  const double comm = state.leaf_comm(leaf);
  const double contention_term = busy > 0.0 ? comm / busy : 0.0;
  return contention_term + busy / nodes;
}

// hot-path: no-alloc
PricedPlacement price_candidate(const CostModel& model, CommCache& cache,
                                const ClusterState& state,
                                std::span<const NodeId> nodes,
                                bool comm_intensive, Pattern pattern,
                                CostWorkspace& workspace) {
  const LeafCommProfile& profile = cache.profile(
      pattern, /*ranks_per_node=*/1, make_shape_key(state.tree(), nodes));
  return {model.candidate_costs(state, nodes, comm_intensive, profile,
                                workspace),
          &profile};
}

// hot-path: no-alloc
double profiled_candidate_cost(const CostModel& model, CommCache& cache,
                               const ClusterState& state,
                               std::span<const NodeId> nodes,
                               bool comm_intensive, Pattern pattern,
                               CostWorkspace& workspace) {
  return model.selected(price_candidate(model, cache, state, nodes,
                                        comm_intensive, pattern, workspace)
                            .costs);
}

// hot-path: no-alloc
PricedPlacement price_selected(const Allocator& allocator,
                               const CostModel& model, CommCache& cache,
                               const ClusterState& state,
                               std::span<const NodeId> nodes,
                               const AllocationRequest& request,
                               CostWorkspace& workspace) {
  if (const PricedPlacement* priced = allocator.last_priced()) return *priced;
  return price_candidate(model, cache, state, nodes, request.comm_intensive,
                         request.pattern, workspace);
}

// hot-path: no-alloc
void take_free_nodes(const ClusterState& state, SwitchId leaf, int count,
                     std::vector<NodeId>& out) {
  COMMSCHED_ASSERT_GE(count, 0);
  if (count == 0) return;
  // The per-leaf free index lists the leaf's free nodes ascending, which is
  // exactly the order the old is_free() scan over nodes_of_leaf() produced.
  const std::span<const NodeId> free = state.free_leaf_span(leaf);
  COMMSCHED_ASSERT_MSG(static_cast<std::size_t>(count) <= free.size(),
                       "leaf has fewer free nodes than requested");
  // contract-trusted: no-alloc: caller scratch reuses reserved capacity
  out.insert(out.end(), free.begin(), free.begin() + count);
}

}  // namespace commsched
