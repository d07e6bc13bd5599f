#include "core/balanced_allocator.hpp"

#include <algorithm>

#include "core/allocator_common.hpp"
#include "util/assert.hpp"

namespace commsched {

// hot-path: no-alloc
bool BalancedAllocator::select_into(const ClusterState& state,
                                    const AllocationRequest& request,
                                    std::vector<NodeId>& out) const {
  out.clear();
  // Lines 9-10: leaves in decreasing free-node order for communication-
  // intensive jobs. Lines 30-35: compute-intensive jobs fill leaves in
  // increasing free-node order, preserving big free blocks for
  // communication-intensive jobs — stock best-fit exactly.
  if (!order_fit_leaves(state, request.num_nodes, free_count,
                        /*descending=*/request.comm_intensive, leaf_order_))
    return false;
  if (!request.comm_intensive) {
    fill_leaves(state, leaf_order_, request.num_nodes, out);
    return true;
  }

  // Per-leaf cursors over the zero-copy free spans (select never mutates
  // the state, so the spans stay valid), so the top-up pass cannot re-take
  // nodes granted in the power-of-two pass.
  // contract-trusted: no-alloc: member scratch reuses capacity across calls
  cursor_.assign(leaf_order_.size(), 0);
  // contract-trusted: no-alloc: caller scratch reuses reserved capacity
  out.reserve(static_cast<std::size_t>(request.num_nodes));
  int remaining = request.num_nodes;
  const auto take_from = [&](std::size_t li, int count) {
    const std::span<const NodeId> free_nodes =
        state.free_leaf_span(leaf_order_[li]);
    // contract-trusted: no-alloc: capacity reserved above
    for (int t = 0; t < count; ++t) out.push_back(free_nodes[cursor_[li]++]);
    remaining -= count;
  };

  // Lines 12-21: halve the chunk size S until it fits each leaf; allocate
  // the largest power of two the leaf can hold. S persists across leaves
  // (the Table 2 example: 512 -> 128,128,64,64,64,32,32).
  int chunk = request.num_nodes;
  for (std::size_t li = 0; li < leaf_order_.size() && remaining > 0; ++li) {
    while (chunk > state.leaf_free(leaf_order_[li])) chunk /= 2;
    if (chunk == 0) break;  // leaf smaller than any power-of-two chunk
    take_from(li, std::min(chunk, remaining));
  }

  // Lines 22-27: top up from the leftover free nodes, reverse order.
  for (std::size_t li = leaf_order_.size(); li-- > 0 && remaining > 0;) {
    const int avail = state.leaf_free(leaf_order_[li]) -
                      static_cast<int>(cursor_[li]);
    take_from(li, std::min(avail, remaining));
  }
  COMMSCHED_ASSERT_EQ_MSG(remaining, 0,
                          "lowest-level switch reported enough free nodes "
                          "but leaves did not provide them");
  return true;
}

}  // namespace commsched
