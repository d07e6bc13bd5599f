// Balanced allocation — the paper's Algorithm 2 (§4.2).
//
// For communication-intensive jobs, allocates nodes in powers of two per
// leaf switch (largest leaves first), halving the chunk size until it fits a
// leaf; this keeps the sub-groups of recursive-doubling-style algorithms
// intact inside single switches and so minimizes inter-switch traffic.  Any
// shortfall after the power-of-two pass is topped up from the same leaves in
// reverse order (Algorithm 2 lines 22-27).  Compute-intensive jobs instead
// fill the emptiest-last (ascending free count) so large free blocks survive
// for communicating jobs, which is stock best-fit (lines 30-35).  Both
// branches order leaves through allocator_common's order_fit_leaves; the
// compute branch fills through its fill_leaves.
#pragma once

#include "core/allocator.hpp"

namespace commsched {

class BalancedAllocator final : public Allocator {
 public:
  const char* name() const noexcept override { return "balanced"; }

  bool select_into(const ClusterState& state,
                   const AllocationRequest& request,
                   std::vector<NodeId>& out) const override;

 private:
  // workspace: leaf-ordering scratch reused across const select_into()
  // calls; cleared on entry, never observable.
  mutable std::vector<SwitchId> leaf_order_;
  // workspace: per-leaf take cursors for the power-of-two + top-up passes;
  // reassigned on entry, never observable.
  mutable std::vector<std::size_t> cursor_;
};

}  // namespace commsched
