// Simulated-annealing allocation (DESIGN.md "Delta-cost evaluation & search
// allocators").
//
// The paper's policies (greedy/balanced/adaptive, §4) are one-shot
// constructive heuristics. This allocator treats placement as a search
// problem: it seeds from adaptive's pick (§4.3: the cheaper of the greedy
// and balanced candidates under Eq. 6), and then anneals over leaf
// reassignments and two-slot swaps, pricing every move with
// CostModel::cost_delta — O(affected leaf pairs) per evaluation, which is
// what makes thousands of candidate evaluations per select() affordable.
// The final answer is the best placement *seen* during the walk, so for
// communication-intensive jobs the result is never costlier than adaptive's
// (bit-for-bit: seed and anneal price through the same kernel).
// Compute-intensive jobs get adaptive's pick unchanged. A one-slot anneal
// ends as soon as every leaf that can hold the job has been priced: no
// later proposal could change the best seen.
//
// Moves relocate whole leaf slots (every node of one ShapeKey slot to a
// currently slot-free leaf), which preserves the allocation's canonical
// shape — one cached LeafCommProfile prices the entire anneal. Determinism:
// each select() draws from a private Rng seeded by
// splitmix64(options.seed ^ splitmix64(job)), so results depend only on
// (options, state, request) — identical across engines, thread counts, and
// repeated runs. The budget is iterations, never wall clock.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "collectives/comm_cache.hpp"
#include "core/adaptive_allocator.hpp"
#include "core/allocator.hpp"
#include "core/cost_model.hpp"
#include "topology/tree.hpp"
#include "util/rng.hpp"

namespace commsched {

/// The annealing schedule: the initial temperature as a fraction of the
/// seed placement's cost, the geometric cooling factor applied per
/// proposal, and the proposals without a new best after which an anneal
/// stops.
inline constexpr double kSaInitTempFrac = 0.08;
inline constexpr double kSaCooling = 0.995;
inline constexpr int kSaPatience = 250;

/// Annealing knobs (slurm.conf: SelectTypeParameters=sa,sa_budget=...).
struct SaOptions {
  /// Most proposals per communication-intensive select(), feasible or not.
  /// <= 0 disables the anneal: the allocator returns its seed. A one-slot
  /// anneal may stop sooner, once every leaf that can hold the job has been
  /// priced.
  int budget = 1200;
  /// Base seed; each job's stream is splitmix64(seed ^ splitmix64(job)), so
  /// per-job randomness is stateless across select() calls.
  std::uint64_t seed = 20200817;  // the paper's submission date
  /// > 0: every Nth accepted move, re-derive the delta-maintained total with
  /// a full candidate_cost and fail loudly on any bitwise divergence. The
  /// simulator and allocd raise an unset stride with the audit level
  /// (sa_options_for: cheap -> sampled, full -> every accept); 0 trusts the
  /// delta kernel.
  int verify_stride = 0;
};

/// One anneal move: count == 1 reassigns a slot to a leaf, count == 2
/// swaps two slots' leaves (each move targets the other slot's leaf).
struct MoveProposal {
  std::array<SlotMove, kMaxDeltaMoves> moves{};
  std::size_t count = 0;
};

/// Draw the anneal's next move into `out`, from `rng` alone. With two or
/// more slots, a quarter of the moves swap the leaves of two uniformly
/// drawn slots. The rest move a uniformly drawn slot to a candidate leaf,
/// rejection-sampled toward an anchor: another uniformly drawn slot, or the
/// moving slot when it is the only one. A draw is kept with probability
/// 2 / d(anchor's leaf, target), so leaves near the rest of the job come up
/// more often and none is excluded. `slot_leaf` holds each slot's current
/// leaf and `candidate_leaves` every leaf with room for the smallest slot;
/// neither may be empty. A move may still be infeasible: its target may be
/// held by a slot (the moving slot's own leaf included) or be too small
/// for a moved slot.
void propose_move(const Tree& tree, std::span<const SwitchId> slot_leaf,
                  std::span<const SwitchId> candidate_leaves, Rng& rng,
                  MoveProposal& out);

/// Search-based allocator: adaptive seeding + simulated annealing over slot
/// moves, priced through the delta-cost session.
class SaAllocator final : public Allocator {
 public:
  explicit SaAllocator(CostOptions cost_options = {}, SaOptions options = {},
                       std::shared_ptr<CommCache> cache = nullptr);

  const char* name() const noexcept override { return "sa"; }
  const SaOptions& options() const noexcept { return options_; }

  bool select_into(const ClusterState& state, const AllocationRequest& request,
                   std::vector<NodeId>& out) const override;

  /// Both Eq. 6 sums of the placement the last select() returned, for every
  /// communication-intensive request, and the anneal's profile: the seed's,
  /// which every slot move keeps (see materialize), so the returned
  /// placement's too. An anneal that found nothing cheaper returns the seed
  /// at the seed's price; a cheaper best is walked once, and the walk must
  /// reproduce the delta-maintained total.
  const PricedPlacement* last_priced() const noexcept override {
    return last_priced_.profile != nullptr ? &last_priced_ : nullptr;
  }
  /// Anneal diagnostics of the last select() (bench reporting).
  int last_proposals() const noexcept { return last_proposals_; }
  int last_accepts() const noexcept { return last_accepts_; }

 private:
  void anneal(const ClusterState& state, const AllocationRequest& request,
              const CostModel& model, std::vector<NodeId>& out) const;
  bool move_feasible(const ClusterState& state,
                     const MoveProposal& prop) const;
  void materialize(const ClusterState& state, const std::vector<NodeId>& seed,
                   std::span<const SwitchId> leaf_assign,
                   std::vector<NodeId>& out) const;

  CostOptions cost_options_;
  SaOptions options_;
  std::shared_ptr<CommCache> cache_;
  // Prices through the same CostOptions and cache_, so its seed cost is the
  // one the anneal starts from.
  AdaptiveAllocator adaptive_;

  // workspace: cost-kernel + delta-session scratch reused across const
  // select() calls; observable state is untouched (CostModel is stateless).
  mutable CostWorkspace workspace_;
  // workspace: adaptive's pick for a communication-intensive job,
  // overwritten on every such select_into() entry.
  mutable std::vector<NodeId> seed_;
  // workspace: per-anneal slot state (current/original/best leaf per slot,
  // node counts), rebuilt at every anneal entry.
  mutable std::vector<SwitchId> cur_leaf_;
  // workspace: see cur_leaf_.
  mutable std::vector<SwitchId> orig_leaf_;
  // workspace: see cur_leaf_.
  mutable std::vector<SwitchId> best_leaf_;
  // workspace: see cur_leaf_.
  mutable std::vector<std::int32_t> slot_nnodes_;
  // workspace: candidate target leaves, rebuilt per anneal.
  mutable std::vector<SwitchId> cand_leaves_;
  // workspace: per dense leaf index, the one-slot anneal that last priced
  // the leaf (== priced_epoch_: priced in the current anneal).
  mutable std::vector<std::uint64_t> leaf_priced_;
  // workspace: see leaf_priced_; bumped at every one-slot anneal entry.
  mutable std::uint64_t priced_epoch_ = 0;
  // workspace: per-slot cursor into the target leaf's free span during
  // materialize().
  mutable std::vector<std::int32_t> slot_cursor_;
  // workspace: verify_stride full-recompute node scratch.
  mutable std::vector<NodeId> verify_nodes_;
  // workspace: post-hoc record of the last select(), written once per call
  // and only read back through the accessors above.
  mutable PricedPlacement last_priced_;
  // workspace: see last_priced_.
  mutable int last_proposals_ = 0;
  // workspace: see last_priced_.
  mutable int last_accepts_ = 0;
};

}  // namespace commsched
