// I/O-aware allocation — the paper's §7 future work, combining the
// communication cost model with the I/O contention model.
//
// Three candidate placements are generated: greedy (Algorithm 1), balanced
// (Algorithm 2) and an "I/O spread" that distributes the job's nodes evenly
// across the leaves with the least I/O load (minimizing per-leaf L_io
// stacking). Each candidate is scored by
//
//     comm_fraction * CommCost(c)/CommCost(default)
//   + io_fraction   * IoCost(c)/IoCost(default)
//
// — the expected Eq. 7-style runtime multiplier of the candidate — and the
// cheapest wins. A job with io_fraction 0 degenerates to the adaptive
// policy's choice; a pure-I/O job gets the spread. Communication terms are
// priced through the shared CommCache's canonical-shape profiles.
#pragma once

#include <memory>
#include <optional>

#include "collectives/comm_cache.hpp"
#include "core/allocator.hpp"
#include "core/balanced_allocator.hpp"
#include "core/cost_model.hpp"
#include "core/default_allocator.hpp"
#include "core/greedy_allocator.hpp"
#include "core/io_model.hpp"

namespace commsched {

class IoAwareAllocator final : public Allocator {
 public:
  /// `cache` is the run-wide profile cache; when null the allocator owns a
  /// private one (standalone construction in tests/benches).
  explicit IoAwareAllocator(CostOptions cost_options = {.hop_bytes = true},
                            std::shared_ptr<CommCache> cache = nullptr);

  const char* name() const noexcept override { return "io_aware"; }

  bool select_into(const ClusterState& state,
                   const AllocationRequest& request,
                   std::vector<NodeId>& out) const override;

  /// Both Eq. 6 sums of the placement the last select() returned, when its
  /// score priced it: a winning candidate whenever the request is priced by
  /// Eq. 6 with comm_fraction > 0, and the default fallback whenever the
  /// request is priced by Eq. 6.
  const PricedPlacement* last_priced() const noexcept override {
    return last_priced_.profile != nullptr ? &last_priced_ : nullptr;
  }

  /// The I/O-spread candidate by itself (exposed for tests/benches):
  /// near-equal contiguous blocks over the least-I/O-loaded leaves, so the
  /// per-leaf L_io growth is minimal while rank blocks stay intact.
  static std::optional<std::vector<NodeId>> spread_candidate(
      const ClusterState& state, int num_nodes);

 private:
  /// spread_candidate core; `order`/`desired` are caller-provided scratch.
  static bool spread_into(const ClusterState& state, int num_nodes,
                          std::vector<NodeId>& out,
                          std::vector<SwitchId>& order,
                          std::vector<int>& desired);

  GreedyAllocator greedy_;
  BalancedAllocator balanced_;
  DefaultAllocator default_;
  CostOptions cost_options_;
  std::shared_ptr<CommCache> cache_;
  // workspace: cost-kernel scratch reused across const select() calls;
  // observable state is untouched (CostModel itself is stateless).
  mutable CostWorkspace workspace_;
  // workspace: candidate buffers and spread scratch reused across const
  // select_into() calls; overwritten on entry, never observable.
  mutable std::vector<NodeId> greedy_pick_;
  // workspace: see greedy_pick_.
  mutable std::vector<NodeId> balanced_pick_;
  // workspace: see greedy_pick_.
  mutable std::vector<NodeId> spread_pick_;
  // workspace: see greedy_pick_.
  mutable std::vector<NodeId> default_pick_;
  // workspace: see greedy_pick_.
  mutable std::vector<SwitchId> spread_order_;
  // workspace: see greedy_pick_.
  mutable std::vector<int> spread_desired_;
  // workspace: post-hoc record of the last select(), written once per call
  // and only read back through last_priced().
  mutable PricedPlacement last_priced_;
};

}  // namespace commsched
