#include "core/default_allocator.hpp"

#include "core/allocator_common.hpp"

namespace commsched {

// hot-path: no-alloc
bool DefaultAllocator::select_into(const ClusterState& state,
                                   const AllocationRequest& request,
                                   std::vector<NodeId>& out) const {
  out.clear();
  // Best-fit across the leaves under the chosen switch: fewest free nodes
  // first, so large contiguous blocks stay available for later jobs.
  if (!order_fit_leaves(state, request.num_nodes, free_count,
                        /*descending=*/false, leaf_order_))
    return false;
  fill_leaves(state, leaf_order_, request.num_nodes, out);
  return true;
}

}  // namespace commsched
