#include "support/sa_reference.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "core/adaptive_allocator.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace commsched {

namespace {

// A proposal the allocator would price: in-range slots, and either a swap
// of two slots' current leaves or one slot moved to a leaf no slot holds,
// with room for the moved slots' nodes.
bool feasible(const ClusterState& state, std::span<const SwitchId> cur,
              std::span<const std::int32_t> nnodes, const MoveProposal& prop) {
  const auto k = static_cast<std::int32_t>(cur.size());
  if (prop.count == 0 || prop.count > kMaxDeltaMoves) return false;
  for (std::size_t m = 0; m < prop.count; ++m) {
    const SlotMove& mv = prop.moves[m];
    if (mv.slot < 0 || mv.slot >= k || mv.leaf == kInvalidSwitch) return false;
  }
  const auto fits = [&](const SlotMove& mv) {
    return state.leaf_free(mv.leaf) >=
           nnodes[static_cast<std::size_t>(mv.slot)];
  };
  if (prop.count == 2) {
    const SlotMove& a = prop.moves[0];
    const SlotMove& b = prop.moves[1];
    return a.slot != b.slot &&
           a.leaf == cur[static_cast<std::size_t>(b.slot)] &&
           b.leaf == cur[static_cast<std::size_t>(a.slot)] && fits(a) &&
           fits(b);
  }
  const SlotMove& mv = prop.moves[0];
  return std::find(cur.begin(), cur.end(), mv.leaf) == cur.end() && fits(mv);
}

// Replay the seed's shape runs: slots on their seed leaf keep the seed's
// nodes, a moved slot takes its target leaf's free nodes in ascending order.
std::vector<NodeId> materialize(const ClusterState& state,
                                const ShapeKey& shape,
                                const std::vector<NodeId>& seed,
                                std::span<const SwitchId> orig,
                                std::span<const SwitchId> assign) {
  std::vector<NodeId> out;
  std::vector<std::size_t> taken(assign.size(), 0);
  std::size_t pos = 0;
  for (const auto& [slot, count] : shape.runs) {
    const auto s = static_cast<std::size_t>(slot);
    const auto n = static_cast<std::size_t>(count);
    if (assign[s] == orig[s]) {
      out.insert(out.end(), seed.begin() + static_cast<std::ptrdiff_t>(pos),
                 seed.begin() + static_cast<std::ptrdiff_t>(pos + n));
    } else {
      const std::span<const NodeId> free = state.free_leaf_span(assign[s]);
      COMMSCHED_ASSERT_LE(taken[s] + n, free.size());
      out.insert(out.end(), free.begin() + static_cast<std::ptrdiff_t>(taken[s]),
                 free.begin() + static_cast<std::ptrdiff_t>(taken[s] + n));
      taken[s] += n;
    }
    pos += n;
  }
  return out;
}

}  // namespace

ReferenceSaPick reference_sa_select(const ClusterState& state,
                                    const AllocationRequest& request,
                                    const CostOptions& cost_options,
                                    const SaOptions& options,
                                    const std::shared_ptr<CommCache>& cache) {
  ReferenceSaPick pick;
  const AdaptiveAllocator adaptive(cost_options, cache);
  std::vector<NodeId> seed;
  pick.found = adaptive.select_into(state, request, seed);
  pick.nodes = seed;
  if (!pick.found || !request.comm_intensive) return pick;

  const Tree& tree = state.tree();
  const CostModel model(tree, cost_options);
  const ShapeKey shape = make_shape_key(tree, seed);
  const LeafCommProfile& profile =
      cache->profile(request.pattern, /*ranks_per_node=*/1, shape);
  CostWorkspace ws;
  pick.has_cost = true;
  pick.cost = model.candidate_cost(state, seed, /*comm_intensive=*/true,
                                   profile, ws);
  pick.slots = profile.num_slots;
  if (options.budget <= 0 || profile.steps.empty()) return pick;

  const double begin =
      model.delta_begin(state, seed, /*comm_intensive=*/true, profile, ws);
  COMMSCHED_ASSERT_EQ(begin, pick.cost);
  const auto k = static_cast<std::size_t>(profile.num_slots);
  std::vector<SwitchId> cur(k);
  std::vector<std::int32_t> nnodes(k);
  for (std::size_t s = 0; s < k; ++s) {
    cur[s] = model.delta_slot_leaf(ws, static_cast<std::int32_t>(s));
    nnodes[s] = model.delta_slot_nnodes(ws, static_cast<std::int32_t>(s));
  }
  const std::vector<SwitchId> orig = cur;
  std::vector<SwitchId> best_leaf = cur;
  const std::int32_t min_nodes = *std::min_element(nnodes.begin(), nnodes.end());
  std::vector<SwitchId> cand;
  for (const SwitchId leaf : tree.leaves())
    if (state.leaf_free(leaf) >= min_nodes) cand.push_back(leaf);
  pick.candidate_leaves = static_cast<int>(cand.size());
  COMMSCHED_ASSERT_GE(pick.candidate_leaves, 1);

  Rng rng(splitmix64(options.seed ^
                     splitmix64(static_cast<std::uint64_t>(request.job))));
  double current = begin;
  double best = begin;
  double temp = options.init_temp_frac * begin;
  int since_best = 0;
  MoveProposal prop;
  for (int it = 0; it < options.budget; ++it) {
    if (options.patience > 0 && since_best >= options.patience) break;
    propose_move(tree, cur, cand, rng, prop);
    ++pick.proposals;
    bool new_best = false;
    if (feasible(state, cur, nnodes, prop)) {
      const double priced = model.cost_delta(
          state, std::span<const SlotMove>(prop.moves.data(), prop.count),
          ws);
      bool accept = priced <= current;
      if (!accept && temp > 0.0)
        accept =
            rng.uniform_real(0.0, 1.0) < std::exp((current - priced) / temp);
      if (accept) {
        model.delta_commit(ws);
        for (std::size_t m = 0; m < prop.count; ++m)
          cur[static_cast<std::size_t>(prop.moves[m].slot)] =
              prop.moves[m].leaf;
        current = priced;
        ++pick.accepts;
        if (priced < best) {
          best = priced;
          best_leaf = cur;
          new_best = true;
        }
      }
    }
    since_best = new_best ? 0 : since_best + 1;
    temp *= options.cooling;
  }
  pick.nodes = materialize(state, shape, seed, orig, best_leaf);
  pick.cost = best;
  return pick;
}

}  // namespace commsched
