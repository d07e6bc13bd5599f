// SLURM's stock topology/tree + select/linear policy (§3.1) — the paper's
// baseline.  Finds the lowest-level switch with enough free nodes, then
// fills leaf switches under it best-fit (fewest free nodes first) to limit
// fragmentation; both steps are allocator_common's order_fit_leaves and
// fill_leaves.  Job characteristics are ignored, exactly as in stock SLURM.
#pragma once

#include "core/allocator.hpp"

namespace commsched {

class DefaultAllocator final : public Allocator {
 public:
  const char* name() const noexcept override { return "default"; }

  bool select_into(const ClusterState& state,
                   const AllocationRequest& request,
                   std::vector<NodeId>& out) const override;

 private:
  // workspace: leaf-ordering scratch reused across const select_into()
  // calls; cleared on entry, never observable.
  mutable std::vector<SwitchId> leaf_order_;
};

}  // namespace commsched
