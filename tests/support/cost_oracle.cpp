#include "support/cost_oracle.hpp"

#include <algorithm>
#include <vector>

#include "util/assert.hpp"

namespace commsched {

double oracle_candidate_cost(const CostModel& model, const ClusterState& state,
                             std::span<const NodeId> nodes, int ranks_per_node,
                             bool comm_intensive,
                             const CommSchedule& schedule) {
  COMMSCHED_ASSERT_GE_MSG(ranks_per_node, 1,
                          "need at least one rank per node");
  std::vector<NodeId> ranks;
  ranks.reserve(nodes.size() * static_cast<std::size_t>(ranks_per_node));
  for (const NodeId n : nodes)
    for (int r = 0; r < ranks_per_node; ++r) ranks.push_back(n);

  const Tree& tree = model.tree();
  LeafOverlay overlay(tree);
  const bool overlayed = comm_intensive && model.options().include_candidate;
  if (overlayed) overlay.add_nodes(tree, ranks);

  double total = 0.0;
  for (const CommStep& step : schedule) {
    double worst = 0.0;
    for (const auto& [ri, rj] : step.pairs) {
      COMMSCHED_ASSERT_MSG(ri >= 0 && rj >= 0 &&
                               static_cast<std::size_t>(ri) < ranks.size() &&
                               static_cast<std::size_t>(rj) < ranks.size(),
                           "schedule rank out of range for this allocation");
      worst = std::max(
          worst, model.effective_hops(state, ranks[static_cast<std::size_t>(ri)],
                                      ranks[static_cast<std::size_t>(rj)],
                                      overlayed ? &overlay : nullptr));
    }
    double step_cost = worst * static_cast<double>(step.repeat);
    if (model.options().hop_bytes) step_cost *= step.msize;
    total += step_cost;
  }
  return total;
}

}  // namespace commsched
