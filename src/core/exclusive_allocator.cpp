#include "core/exclusive_allocator.hpp"

#include <algorithm>

#include "core/allocator_common.hpp"
#include "util/assert.hpp"

namespace commsched {

// hot-path: no-alloc
bool ExclusiveAllocator::select_into(const ClusterState& state,
                                     const AllocationRequest& request,
                                     std::vector<NodeId>& out) const {
  const Tree& tree = state.tree();
  out.clear();
  // contract-trusted: no-alloc: caller scratch reuses reserved capacity
  out.reserve(static_cast<std::size_t>(request.num_nodes));

  // Small jobs: a completely idle leaf that fits the whole request keeps
  // the job isolated without fragmenting several leaves. Pick the
  // best-fitting (smallest sufficient) idle leaf.
  SwitchId best_leaf = kInvalidSwitch;
  for (const SwitchId leaf : tree.leaves()) {
    if (state.leaf_busy(leaf) != 0) continue;
    if (state.leaf_nodes(leaf) < request.num_nodes) continue;
    if (best_leaf == kInvalidSwitch ||
        state.leaf_nodes(leaf) < state.leaf_nodes(best_leaf))
      best_leaf = leaf;
  }
  if (best_leaf != kInvalidSwitch) {
    take_free_nodes(state, best_leaf, request.num_nodes, out);
    return true;
  }

  // Large jobs: gather whole idle leaves (largest first, to use as few
  // switches as possible) until the request is covered. The last leaf may
  // be partially used, but remains dedicated to this job regardless.
  auto& idle = idle_;
  idle.clear();
  for (const SwitchId leaf : tree.leaves())
    // contract-trusted: no-alloc: member scratch reuses capacity across calls
    if (state.leaf_busy(leaf) == 0) idle.push_back(leaf);
  std::sort(idle.begin(), idle.end(), [&](SwitchId a, SwitchId b) {
    const int na = state.leaf_nodes(a);
    const int nb = state.leaf_nodes(b);
    if (na != nb) return na > nb;
    return a < b;
  });
  int available = 0;
  for (const SwitchId leaf : idle) available += state.leaf_nodes(leaf);
  if (available < request.num_nodes) return false;  // must wait

  int remaining = request.num_nodes;
  for (const SwitchId leaf : idle) {
    const int take = std::min(state.leaf_nodes(leaf), remaining);
    take_free_nodes(state, leaf, take, out);
    remaining -= take;
    if (remaining == 0) return true;
  }
  COMMSCHED_ASSERT_MSG(false, "idle-leaf capacity changed mid-selection");
  return false;
}

}  // namespace commsched
