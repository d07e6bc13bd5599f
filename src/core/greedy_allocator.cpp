#include "core/greedy_allocator.hpp"

#include "core/allocator_common.hpp"

namespace commsched {

// hot-path: no-alloc
bool GreedyAllocator::select_into(const ClusterState& state,
                                  const AllocationRequest& request,
                                  std::vector<NodeId>& out) const {
  out.clear();
  // Algorithm 1 lines 7-10: order leaves by communication ratio; ascending
  // for communication-intensive jobs, descending otherwise. Lines 3-5 (one
  // leaf holds the request) are the one-leaf case of the same order.
  if (!order_fit_leaves(state, request.num_nodes, communication_ratio,
                        /*descending=*/!request.comm_intensive, leaf_order_))
    return false;
  // Lines 11-18: fill leaves in sorted order.
  fill_leaves(state, leaf_order_, request.num_nodes, out);
  return true;
}

}  // namespace commsched
