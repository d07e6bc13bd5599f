// Adaptive allocation — the paper's §4.3.
//
// Runs both the greedy and the balanced policy hypothetically, prices each
// candidate allocation with the effective-hops cost model (Eq. 6) against
// the job's collective schedule, and commits to the cheaper one for
// communication-intensive jobs (the pricier one for compute-intensive jobs,
// which keeps the better placement free for communicating workloads).
//
// Candidate pricing goes through the shared CommCache's canonical-shape
// profiles (allocator_common's price_candidate); the simulator hands
// every policy and pricing model of one run the same cache instance.
// Identical greedy and balanced node lists are priced once, and the
// winner's price is handed on through last_priced().
#pragma once

#include <memory>

#include "collectives/comm_cache.hpp"
#include "core/allocator.hpp"
#include "core/balanced_allocator.hpp"
#include "core/cost_model.hpp"
#include "core/greedy_allocator.hpp"

namespace commsched {

class AdaptiveAllocator final : public Allocator {
 public:
  /// `cost_options` selects the candidate-pricing variant (Eq. 6 hops by
  /// default; hop-bytes for the ablation in bench_ablation). `cache` is the
  /// run-wide profile cache; when null the allocator owns a private
  /// one (standalone construction in tests/benches).
  explicit AdaptiveAllocator(CostOptions cost_options = {},
                             std::shared_ptr<CommCache> cache = nullptr);

  const char* name() const noexcept override { return "adaptive"; }

  bool select_into(const ClusterState& state,
                   const AllocationRequest& request,
                   std::vector<NodeId>& out) const override;

  /// The winner's two Eq. 6 sums and profile, whenever both greedy and
  /// balanced produced a candidate (one alone is not priced).
  const PricedPlacement* last_priced() const noexcept override {
    return last_priced_.profile != nullptr ? &last_priced_ : nullptr;
  }

 private:
  GreedyAllocator greedy_;
  BalancedAllocator balanced_;
  CostOptions cost_options_;
  std::shared_ptr<CommCache> cache_;
  // workspace: cost-kernel scratch reused across const select() calls;
  // observable state is untouched (CostModel itself is stateless).
  mutable CostWorkspace workspace_;
  // workspace: post-hoc record of the last select(), written once per
  // call and only read back through last_priced().
  mutable PricedPlacement last_priced_;
  // workspace: candidate buffers reused across const select_into() calls;
  // overwritten by the nested policies on entry, never observable.
  mutable std::vector<NodeId> greedy_pick_;
  // workspace: see greedy_pick_.
  mutable std::vector<NodeId> balanced_pick_;
};

}  // namespace commsched
