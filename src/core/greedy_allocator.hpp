// Greedy allocation — the paper's Algorithm 1 (§4.1).
//
// Orders the leaf switches under the lowest feasible switch by their
// communication ratio (Eq. 1): ascending for communication-intensive jobs
// (least-contended, emptiest leaves first) and descending for
// compute-intensive jobs (so quiet leaves stay available for communicating
// jobs), then fills leaves in that order, through allocator_common's
// order_fit_leaves and fill_leaves.
#pragma once

#include "core/allocator.hpp"

namespace commsched {

class GreedyAllocator final : public Allocator {
 public:
  const char* name() const noexcept override { return "greedy"; }

  bool select_into(const ClusterState& state,
                   const AllocationRequest& request,
                   std::vector<NodeId>& out) const override;

 private:
  // workspace: leaf-ordering scratch reused across const select_into()
  // calls; cleared on entry, never observable.
  mutable std::vector<SwitchId> leaf_order_;
};

}  // namespace commsched
