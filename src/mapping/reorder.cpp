#include "mapping/reorder.hpp"

#include <algorithm>
#include <unordered_map>

#include "collectives/comm_cache.hpp"
#include "util/assert.hpp"

namespace commsched {

std::vector<NodeId> switch_major_order(const Tree& tree,
                                       std::span<const NodeId> nodes) {
  // Assign each leaf a rank by first appearance so the ordering is stable
  // with respect to the allocator's leaf preference.
  std::unordered_map<SwitchId, int> leaf_rank;
  for (const NodeId n : nodes) {
    const SwitchId leaf = tree.leaf_of(n);
    leaf_rank.emplace(leaf, static_cast<int>(leaf_rank.size()));
  }
  std::vector<NodeId> out(nodes.begin(), nodes.end());
  std::stable_sort(out.begin(), out.end(), [&](NodeId a, NodeId b) {
    const int la = leaf_rank.at(tree.leaf_of(a));
    const int lb = leaf_rank.at(tree.leaf_of(b));
    if (la != lb) return la < lb;
    return a < b;
  });
  return out;
}

std::vector<NodeId> improve_mapping(const ClusterState& state,
                                    const CostModel& model, Pattern pattern,
                                    double base_msize,
                                    std::span<const NodeId> nodes,
                                    bool comm_intensive,
                                    const MappingOptions& options) {
  COMMSCHED_ASSERT(options.max_passes >= 0);
  const Tree& tree = state.tree();
  std::vector<NodeId> best = switch_major_order(tree, nodes);
  if (static_cast<int>(best.size()) > options.max_swap_nodes) return best;

  CostWorkspace workspace;
  const auto price = [&](std::span<const NodeId> order) {
    const LeafCommProfile profile = make_leaf_comm_profile(
        pattern, base_msize, make_shape_key(tree, order),
        /*ranks_per_node=*/1);
    return model.candidate_cost(state, order, comm_intensive, profile,
                                workspace);
  };
  double best_cost = price(best);
  for (int pass = 0; pass < options.max_passes; ++pass) {
    bool improved = false;
    for (std::size_t i = 0; i + 1 < best.size(); ++i) {
      for (std::size_t j = i + 1; j < best.size(); ++j) {
        // Swapping two nodes on the same leaf cannot change any distance
        // or contention term; skip the cost evaluation.
        if (tree.leaf_of(best[i]) == tree.leaf_of(best[j])) continue;
        std::swap(best[i], best[j]);
        const double cost = price(best);
        if (cost < best_cost) {
          best_cost = cost;
          improved = true;
        } else {
          std::swap(best[i], best[j]);  // revert
        }
      }
    }
    if (!improved) break;
  }
  return best;
}

}  // namespace commsched
