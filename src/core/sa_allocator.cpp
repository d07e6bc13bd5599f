#include "core/sa_allocator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/allocator_common.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace commsched {

namespace {

/// Share of moves that are two-slot swaps (when >= 2 slots exist). Swaps
/// explore placement permutations capacity-neutrally; reassignments explore
/// new leaves. A fixed split keeps both move kinds in play at every
/// temperature.
constexpr double kSwapProbability = 0.25;

/// Rejection-sampling attempts for the locality bias before falling back to
/// the last uniform draw. Bounded so one propose_move() call stays O(1).
constexpr int kLocalityTries = 8;

}  // namespace

// hot-path: no-alloc
void propose_move(const Tree& tree, std::span<const SwitchId> slot_leaf,
                  std::span<const SwitchId> candidate_leaves, Rng& rng,
                  MoveProposal& out) {
  const auto k = static_cast<std::int64_t>(slot_leaf.size());
  if (k >= 2 && rng.bernoulli(kSwapProbability)) {
    const auto s1 = rng.uniform_int(0, k - 1);
    auto s2 = rng.uniform_int(0, k - 2);
    if (s2 >= s1) ++s2;  // uniform over the other slots
    out.moves[0] = {static_cast<std::int32_t>(s1),
                    slot_leaf[static_cast<std::size_t>(s2)]};
    out.moves[1] = {static_cast<std::int32_t>(s2),
                    slot_leaf[static_cast<std::size_t>(s1)]};
    out.count = 2;
    return;
  }
  const auto s = rng.uniform_int(0, k - 1);
  auto anchor = s;
  if (k > 1) {
    anchor = rng.uniform_int(0, k - 2);
    if (anchor >= s) ++anchor;
  }
  const SwitchId anchor_leaf = slot_leaf[static_cast<std::size_t>(anchor)];
  const auto n_cand = static_cast<std::int64_t>(candidate_leaves.size());
  SwitchId target = kInvalidSwitch;
  for (int attempt = 0; attempt < kLocalityTries; ++attempt) {
    target = candidate_leaves[
        static_cast<std::size_t>(rng.uniform_int(0, n_cand - 1))];
    // d(anchor, anchor) == 2, so same-leaf/nearby targets accept with
    // probability 1 and the probability halves per extra hop level.
    const double d = tree.leaf_distance(anchor_leaf, target);
    if (rng.bernoulli(2.0 / d)) break;
  }
  out.moves[0] = {static_cast<std::int32_t>(s), target};
  out.count = 1;
}

SaAllocator::SaAllocator(CostOptions cost_options, SaOptions options,
                         std::shared_ptr<CommCache> cache)
    : cost_options_(cost_options),
      options_(options),
      cache_(cache ? std::move(cache)
                   : std::make_shared<CommCache>(double{1 << 20})),
      adaptive_(cost_options, cache_) {
  COMMSCHED_ASSERT_GE(options_.verify_stride, 0);
}

// hot-path: no-alloc
bool SaAllocator::select_into(const ClusterState& state,
                              const AllocationRequest& request,
                              std::vector<NodeId>& out) const {
  last_priced_ = {};
  last_proposals_ = 0;
  last_accepts_ = 0;
  // Compute-intensive: adaptive's rule (§4.3) as is. No anneal: the job is
  // placement-insensitive.
  if (!request.comm_intensive)
    return adaptive_.select_into(state, request, out);
  if (!adaptive_.select_into(state, request, seed_)) {
    out.clear();
    return false;
  }

  // Communication-intensive: anneal from adaptive's pick, at the price and
  // with the profile adaptive handed on. Adaptive prices nothing when only
  // one candidate existed; then one lookup and one walk price the seed.
  const CostModel model(state.tree(), cost_options_);
  last_priced_ = price_selected(adaptive_, model, *cache_, state, seed_,
                                request, workspace_);
  if (options_.budget <= 0 || last_priced_.profile->steps.empty()) {
    out = seed_;
    return true;
  }
  anneal(state, request, model, out);
  return true;
}

// hot-path: no-alloc
void SaAllocator::anneal(const ClusterState& state,
                         const AllocationRequest& request,
                         const CostModel& model,
                         std::vector<NodeId>& out) const {
  const Tree& tree = state.tree();
  const LeafCommProfile& profile = *last_priced_.profile;
  const double begin_cost =
      model.delta_begin(state, seed_, /*comm_intensive=*/true, profile,
                        workspace_);
  COMMSCHED_ASSERT_EQ_MSG(begin_cost, model.selected(last_priced_.costs),
                          "delta_begin diverged from the seed's full cost");

  // Mirror the session's slot assignment (first-appearance slot order). The
  // per-slot mirrors and the candidate-leaf pool below are bounded by the
  // topology's leaf count and reuse capacity across select() calls.
  const auto k = static_cast<std::size_t>(profile.num_slots);
  // contract-trusted: no-alloc: k-bounded, capacity reused
  cur_leaf_.resize(k);
  // contract-trusted: no-alloc: k-bounded, capacity reused
  slot_nnodes_.resize(k);
  int min_nodes = std::numeric_limits<int>::max();
  for (std::size_t s = 0; s < k; ++s) {
    const auto slot = static_cast<std::int32_t>(s);
    cur_leaf_[s] = model.delta_slot_leaf(workspace_, slot);
    slot_nnodes_[s] = model.delta_slot_nnodes(workspace_, slot);
    min_nodes = std::min(min_nodes, static_cast<int>(slot_nnodes_[s]));
  }
  // contract-trusted: no-alloc: k-bounded, capacity reused
  orig_leaf_.assign(cur_leaf_.begin(), cur_leaf_.end());
  // contract-trusted: no-alloc: k-bounded, capacity reused
  best_leaf_.assign(cur_leaf_.begin(), cur_leaf_.end());

  cand_leaves_.clear();
  for (const SwitchId leaf : tree.leaves())
    if (state.leaf_free(leaf) >= min_nodes)
      // contract-trusted: no-alloc: leaf-count-bounded, capacity reused
      cand_leaves_.push_back(leaf);
  // Each seed slot's leaf has room for that slot, so the smallest slot's
  // leaf is a candidate: propose_move always has a target to draw.
  COMMSCHED_ASSERT_GE_MSG(cand_leaves_.size(), std::size_t{1},
                          "the seed's leaves must be candidates");

  // One slot: min_nodes is its size, so every candidate leaf can hold it,
  // and every feasible proposal targets one. delta_begin priced the seed's
  // leaf; once cost_delta has priced each other candidate, the walk ends.
  // That is exact: the best changes only on a strict improvement, every
  // cost below the best is accepted, and a delta price depends only on the
  // slot -> leaf assignment, so no later proposal could change the best
  // seen. Multi-slot anneals never arm the exit (unpriced stays at max).
  const bool one_slot = k == 1;
  std::size_t unpriced = std::numeric_limits<std::size_t>::max();
  if (one_slot) {
    ++priced_epoch_;
    // contract-trusted: no-alloc: leaf-count-bounded, capacity reused
    leaf_priced_.resize(static_cast<std::size_t>(tree.leaf_count()));
    leaf_priced_[static_cast<std::size_t>(tree.leaf_index(cur_leaf_[0]))] =
        priced_epoch_;
    unpriced = cand_leaves_.size() - 1;
  }

  // Stateless per-job stream: the anneal's randomness depends only on
  // (options seed, job id), never on prior select() calls — what keeps the
  // fast and reference engines (and any thread count) bit-identical.
  Rng rng(splitmix64(options_.seed ^
                     splitmix64(static_cast<std::uint64_t>(request.job))));

  double current = begin_cost;
  double best = begin_cost;
  double temp = kSaInitTempFrac * begin_cost;
  int since_best = 0;
  MoveProposal prop;
  for (int it = 0; it < options_.budget; ++it) {
    if (since_best >= kSaPatience) break;
    if (unpriced == 0) break;
    propose_move(tree, cur_leaf_, cand_leaves_, rng, prop);
    ++last_proposals_;
    bool new_best = false;
    if (move_feasible(state, prop)) {
      if (one_slot) {
        std::uint64_t& stamp = leaf_priced_[static_cast<std::size_t>(
            tree.leaf_index(prop.moves[0].leaf))];
        if (stamp != priced_epoch_) {
          stamp = priced_epoch_;
          --unpriced;
        }
      }
      const double cand = model.cost_delta(
          state, std::span<const SlotMove>(prop.moves.data(), prop.count),
          workspace_);
      bool accept = cand <= current;
      if (!accept && temp > 0.0)
        accept =
            rng.uniform_real(0.0, 1.0) < std::exp((current - cand) / temp);
      if (accept) {
        model.delta_commit(workspace_);
        for (std::size_t m = 0; m < prop.count; ++m)
          cur_leaf_[static_cast<std::size_t>(prop.moves[m].slot)] =
              prop.moves[m].leaf;
        current = cand;
        ++last_accepts_;
        if (options_.verify_stride > 0 &&
            last_accepts_ % options_.verify_stride == 0) {
          // Sampled oracle: the delta-maintained total must equal a full
          // recompute of the materialized placement, bit for bit.
          materialize(state, seed_, cur_leaf_, verify_nodes_);
          const double full = model.candidate_cost(
              state, verify_nodes_, /*comm_intensive=*/true, profile,
              workspace_);
          COMMSCHED_ASSERT_EQ_MSG(full, current,
                                  "delta-maintained SA total diverged from "
                                  "the full recompute");
        }
        if (cand < best) {
          best = cand;
          // contract-trusted: no-alloc: snapshot into capacity reserved by
          // the k-sized assign at anneal entry
          best_leaf_.assign(cur_leaf_.begin(), cur_leaf_.end());
          new_best = true;
        }
      }
    }
    since_best = new_best ? 0 : since_best + 1;
    temp *= kSaCooling;
  }

  // Return the best placement *seen* — never costlier than the seed. Unless
  // it is strictly cheaper it is the seed, and the seed's price stands;
  // otherwise one walk prices it, which must reproduce the delta-maintained
  // best bit for bit.
  materialize(state, seed_, best_leaf_, out);
  if (best < begin_cost) {
    last_priced_.costs = model.candidate_costs(
        state, out, /*comm_intensive=*/true, profile, workspace_);
    COMMSCHED_ASSERT_EQ_MSG(model.selected(last_priced_.costs), best,
                            "delta-maintained SA best diverged from a full "
                            "walk of the returned placement");
  }
}

// Whether a move propose_move drew can be priced. propose_move knows neither
// which leaves the slots hold nor the slots' sizes, so a reassignment must
// target a leaf no slot holds (its own included), and every moved slot must
// fit its target leaf.
// hot-path: no-alloc
bool SaAllocator::move_feasible(const ClusterState& state,
                                const MoveProposal& prop) const {
  if (prop.count == 1)
    for (const SwitchId leaf : cur_leaf_)
      if (leaf == prop.moves[0].leaf) return false;
  for (std::size_t m = 0; m < prop.count; ++m) {
    const SlotMove& mv = prop.moves[m];
    if (state.leaf_free(mv.leaf) <
        slot_nnodes_[static_cast<std::size_t>(mv.slot)])
      return false;
  }
  return true;
}

// Rebuild the node list for a (possibly moved) slot assignment by walking
// the seed: a node's slot is the first-appearance slot of its leaf (the
// numbering freeze_slots and the ShapeKey use); an unmoved slot keeps the
// seed's node, a moved slot takes the next free node of its target leaf in
// ascending id order. The slot -> leaf map is injective, so the rank -> slot
// structure, the canonical ShapeKey and with it the cached profile are
// preserved by construction.
// hot-path: no-alloc
void SaAllocator::materialize(const ClusterState& state,
                              const std::vector<NodeId>& seed,
                              std::span<const SwitchId> leaf_assign,
                              std::vector<NodeId>& out) const {
  const Tree& tree = state.tree();
  out.clear();
  // contract-trusted: no-alloc: cursor buffer bounded by the slot count;
  // capacity reused across calls
  slot_cursor_.assign(leaf_assign.size(), 0);
  std::size_t numbered = 0;  // slots whose leaf the walk has met
  std::size_t s = 0;         // slot of the current leaf run
  SwitchId run_leaf = kInvalidSwitch;
  for (const NodeId n : seed) {
    const SwitchId leaf = tree.leaf_of(n);
    if (leaf != run_leaf) {
      run_leaf = leaf;
      if (numbered < orig_leaf_.size() && orig_leaf_[numbered] == leaf) {
        s = numbered++;
      } else {  // a leaf met in an earlier run
        s = 0;
        while (s < numbered && orig_leaf_[s] != leaf) ++s;
        COMMSCHED_ASSERT_LT_MSG(s, numbered, "seed node off its slots' leaves");
      }
    }
    if (leaf_assign[s] == orig_leaf_[s]) {
      // contract-trusted: no-alloc: out's capacity is bounded by the
      // request's node count and reused across select() calls
      out.push_back(n);
      continue;
    }
    const std::span<const NodeId> free_span =
        state.free_leaf_span(leaf_assign[s]);
    std::int32_t& cur = slot_cursor_[s];
    COMMSCHED_ASSERT_LT_MSG(static_cast<std::size_t>(cur), free_span.size(),
                            "moved slot does not fit its target leaf");
    // contract-trusted: no-alloc: see the seed-copy branch above
    out.push_back(free_span[static_cast<std::size_t>(cur++)]);
  }
}

}  // namespace commsched
