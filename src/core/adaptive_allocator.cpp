#include "core/adaptive_allocator.hpp"

#include <utility>

#include "core/allocator_common.hpp"

namespace commsched {

AdaptiveAllocator::AdaptiveAllocator(CostOptions cost_options,
                                     std::shared_ptr<CommCache> cache)
    : cost_options_(cost_options), cache_(std::move(cache)) {
  if (!cache_) cache_ = std::make_shared<CommCache>(double{1 << 20});
}

// hot-path: no-alloc
bool AdaptiveAllocator::select_into(const ClusterState& state,
                                    const AllocationRequest& request,
                                    std::vector<NodeId>& out) const {
  const bool have_greedy = greedy_.select_into(state, request, greedy_pick_);
  const bool have_balanced =
      balanced_.select_into(state, request, balanced_pick_);
  last_has_cost_ = false;
  last_cost_ = 0.0;
  if (!have_greedy && !have_balanced) {
    out.clear();
    return false;
  }
  if (!have_greedy || !have_balanced) {
    last_chose_balanced_ = !have_greedy;
    out = have_greedy ? greedy_pick_ : balanced_pick_;
    return true;
  }

  const CostModel model(state.tree(), cost_options_);
  const double greedy_cost =
      profiled_candidate_cost(model, *cache_, state, greedy_pick_,
                              request.comm_intensive, request.pattern,
                              workspace_);
  const double balanced_cost =
      profiled_candidate_cost(model, *cache_, state, balanced_pick_,
                              request.comm_intensive, request.pattern,
                              workspace_);

  // Lower cost wins for communication-intensive jobs; higher for compute
  // jobs (they are insensitive, and the cheap placement stays available).
  // Ties go to balanced, whose power-of-two structure also helps later jobs.
  bool choose_balanced;
  if (request.comm_intensive)
    choose_balanced = balanced_cost <= greedy_cost;
  else
    choose_balanced = balanced_cost >= greedy_cost;

  last_chose_balanced_ = choose_balanced;
  last_cost_ = choose_balanced ? balanced_cost : greedy_cost;
  last_has_cost_ = true;
  out = choose_balanced ? balanced_pick_ : greedy_pick_;
  return true;
}

}  // namespace commsched
