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
  last_priced_ = {};
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
  const auto price = [&](const std::vector<NodeId>& pick) {
    return price_candidate(model, *cache_, state, pick,
                           request.comm_intensive, request.pattern,
                           workspace_);
  };
  // Lower cost wins for communication-intensive jobs; higher for compute
  // jobs (they are insensitive, and the cheap placement stays available).
  // Ties go to balanced, whose power-of-two structure also helps later jobs;
  // identical node lists price identically, so there one walk decides.
  last_priced_ = price(balanced_pick_);
  bool choose_balanced = true;
  if (greedy_pick_ != balanced_pick_) {
    const PricedPlacement greedy = price(greedy_pick_);
    const double greedy_cost = model.selected(greedy.costs);
    const double balanced_cost = model.selected(last_priced_.costs);
    choose_balanced = request.comm_intensive ? balanced_cost <= greedy_cost
                                             : balanced_cost >= greedy_cost;
    if (!choose_balanced) last_priced_ = greedy;
  }

  last_chose_balanced_ = choose_balanced;
  out = choose_balanced ? balanced_pick_ : greedy_pick_;
  return true;
}

}  // namespace commsched
