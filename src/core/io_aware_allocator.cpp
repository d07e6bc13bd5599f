#include "core/io_aware_allocator.hpp"

#include <algorithm>
#include <utility>

#include "core/allocator_common.hpp"
#include "util/assert.hpp"

namespace commsched {

IoAwareAllocator::IoAwareAllocator(CostOptions cost_options,
                                   std::shared_ptr<CommCache> cache)
    : cost_options_(cost_options), cache_(std::move(cache)) {
  if (!cache_) cache_ = std::make_shared<CommCache>(double{1 << 20});
}

std::optional<std::vector<NodeId>> IoAwareAllocator::spread_candidate(
    const ClusterState& state, int num_nodes) {
  std::vector<NodeId> out;
  std::vector<SwitchId> order;
  std::vector<int> desired;
  if (!spread_into(state, num_nodes, out, order, desired)) return std::nullopt;
  return out;
}

// hot-path: no-alloc
bool IoAwareAllocator::spread_into(const ClusterState& state, int num_nodes,
                                   std::vector<NodeId>& out,
                                   std::vector<SwitchId>& order,
                                   std::vector<int>& desired) {
  COMMSCHED_ASSERT_GE(num_nodes, 1);
  out.clear();
  if (state.total_free() < num_nodes) return false;
  const Tree& tree = state.tree();

  // Leaves in ascending I/O-load order (fraction of nodes doing I/O),
  // ties by more free nodes, then id.
  order.clear();
  for (const SwitchId l : tree.leaves())
    // contract-trusted: no-alloc: caller scratch reuses reserved capacity
    if (state.leaf_free(l) > 0) order.push_back(l);
  std::sort(order.begin(), order.end(), [&](SwitchId a, SwitchId b) {
    const double ia = static_cast<double>(state.leaf_io(a)) / state.leaf_nodes(a);
    const double ib = static_cast<double>(state.leaf_io(b)) / state.leaf_nodes(b);
    if (ia != ib) return ia < ib;
    if (state.leaf_free(a) != state.leaf_free(b))
      return state.leaf_free(a) > state.leaf_free(b);
    return a < b;
  });

  // Even water-fill over the least-loaded leaves: every leaf gets an
  // (almost) equal share, capped by its free capacity, with any deficit
  // pushed onto the later (more loaded) leaves. Blocks stay contiguous in
  // rank space so the communication term is not wrecked by interleaving.
  const auto k = order.size();
  // contract-trusted: no-alloc: caller scratch reuses reserved capacity
  desired.assign(k, 0);
  const int base = num_nodes / static_cast<int>(k);
  int extra = num_nodes % static_cast<int>(k);
  for (std::size_t i = 0; i < k; ++i) {
    desired[i] = base + (static_cast<int>(i) < extra ? 1 : 0);
  }
  int deficit = 0;
  for (std::size_t i = 0; i < k; ++i) {
    desired[i] += deficit;
    deficit = 0;
    const int free = state.leaf_free(order[i]);
    if (desired[i] > free) {
      deficit = desired[i] - free;
      desired[i] = free;
    }
  }
  // Any residue wraps around to leaves with spare capacity.
  for (std::size_t i = 0; i < k && deficit > 0; ++i) {
    const int spare = state.leaf_free(order[i]) - desired[i];
    const int take = std::min(spare, deficit);
    desired[i] += take;
    deficit -= take;
  }
  COMMSCHED_ASSERT_EQ_MSG(deficit, 0, "free-node accounting out of sync");

  // contract-trusted: no-alloc: caller scratch reuses reserved capacity
  out.reserve(static_cast<std::size_t>(num_nodes));
  for (std::size_t i = 0; i < k; ++i) {
    // The free index lists exactly the leaf's free nodes ascending — the
    // same prefix the old is_free() scan over nodes_of_leaf() took.
    const std::span<const NodeId> free = state.free_leaf_span(order[i]);
    COMMSCHED_ASSERT_GE(static_cast<int>(free.size()), desired[i]);
    // contract-trusted: no-alloc: caller scratch reuses reserved capacity
    out.insert(out.end(), free.begin(), free.begin() + desired[i]);
  }
  return true;
}

// hot-path: no-alloc
bool IoAwareAllocator::select_into(const ClusterState& state,
                                   const AllocationRequest& request,
                                   std::vector<NodeId>& out) const {
  last_priced_ = {};
  // Candidates.
  const bool have_greedy = greedy_.select_into(state, request, greedy_pick_);
  const bool have_balanced =
      balanced_.select_into(state, request, balanced_pick_);
  const bool have_spread = spread_into(state, request.num_nodes, spread_pick_,
                                       spread_order_, spread_desired_);
  const bool have_default =
      default_.select_into(state, request, default_pick_);
  if (!have_default) {  // nothing fits at all
    out.clear();
    return false;
  }

  const CostModel comm_model(state.tree(), cost_options_);
  const IoModel io_model(state.tree());

  // Each placement is priced at most once, and the returned one's price is
  // handed on (last_priced).
  const bool price_comm =
      priced_by_eq6(request.comm_intensive, request.num_nodes);
  const PricedPlacement base =
      price_comm ? price_candidate(comm_model, *cache_, state, default_pick_,
                                   request.comm_intensive, request.pattern,
                                   workspace_)
                 : PricedPlacement{};
  const double comm_base = price_comm ? comm_model.selected(base.costs) : 0.0;
  const double io_base =
      io_model.candidate_cost(state, default_pick_, request.io_intensive);

  const std::vector<NodeId>* best = nullptr;
  double best_score = 0.0;
  PricedPlacement best_priced;
  const std::pair<bool, const std::vector<NodeId>*> candidates[] = {
      {have_greedy, &greedy_pick_},
      {have_balanced, &balanced_pick_},
      {have_spread, &spread_pick_},
  };
  for (const auto& [have, candidate] : candidates) {
    if (!have) continue;
    double s = 0.0;
    PricedPlacement priced;
    if (price_comm && request.comm_fraction > 0.0) {
      priced = price_candidate(comm_model, *cache_, state, *candidate,
                               request.comm_intensive, request.pattern,
                               workspace_);
      s += request.comm_fraction *
           cost_ratio(comm_model.selected(priced.costs), comm_base);
    }
    if (request.io_intensive && request.io_fraction > 0.0)
      s += request.io_fraction *
           cost_ratio(io_model.candidate_cost(state, *candidate,
                                              request.io_intensive),
                      io_base);
    if (best == nullptr || s < best_score) {
      best_score = s;
      best = candidate;
      best_priced = priced;
    }
  }
  // No candidate: fall back to stock.
  out = best != nullptr ? *best : default_pick_;
  last_priced_ = best != nullptr ? best_priced : base;
  return true;
}

}  // namespace commsched
