#include "core/cost_model.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace commsched {

LeafOverlay::LeafOverlay(const Tree& tree)
    : extra_(static_cast<std::size_t>(tree.switch_count()), 0) {}

// hot-path: no-alloc
void LeafOverlay::add_nodes(const Tree& tree, std::span<const NodeId> nodes) {
  for (const NodeId n : nodes) {
    const SwitchId leaf = tree.leaf_of(n);
    // contract-trusted: no-alloc: bounded by leaf count; reused capacity
    if (extra_[static_cast<std::size_t>(leaf)] == 0) touched_.push_back(leaf);
    ++extra_[static_cast<std::size_t>(leaf)];
  }
}

// hot-path: no-alloc
void LeafOverlay::clear() {
  for (const SwitchId s : touched_) extra_[static_cast<std::size_t>(s)] = 0;
  touched_.clear();
}

// hot-path: no-alloc
int LeafOverlay::extra_comm(SwitchId leaf) const {
  return extra_[static_cast<std::size_t>(leaf)];
}

CostModel::CostModel(const Tree& tree, CostOptions options)
    : tree_(&tree), options_(options) {}

namespace {

// hot-path: no-alloc
double leaf_comm_fraction(const ClusterState& state, SwitchId leaf,
                          const LeafOverlay* overlay) {
  const double comm =
      state.leaf_comm(leaf) + (overlay ? overlay->extra_comm(leaf) : 0);
  return comm / static_cast<double>(state.leaf_nodes(leaf));
}

/// Eq. 5 hops between two leaves from frozen per-leaf contention inputs —
/// the single arithmetic behind the slot-table memo (memo_hops) and the
/// delta session's tentative rows, so both agree bit for bit.
// hot-path: no-alloc
double eq5_hops(const Tree& tree, SwitchId la, SwitchId lb, double ca,
                double na, double cb, double nb) {
  double contention;
  if (la == lb) {
    contention = ca / na;  // Eq. 2
  } else {
    contention = ca / na + cb / nb + 0.5 * (ca + cb) / (na + nb);  // Eq. 3
  }
  const double d = tree.leaf_distance(la, lb);
  return d * (1.0 + contention);  // Eq. 5
}

/// Eq. 6 over a profile's steps from per-class worst-hops values. Every
/// evaluation (full kernel, delta begin, delta eval) sums through this
/// one loop: FP addition is order-sensitive, so sharing the step order and
/// the per-step arithmetic (worst × repeat, times msize for hop-bytes) is
/// what keeps their totals bit-identical. `hops` and `hop_bytes` pick the
/// sums to accumulate (one not picked stays 0): the full kernel takes both,
/// the delta session only the one its options select, since an anneal
/// sums once per proposal.
// hot-path: no-alloc
template <typename WorstOf>
CandidateCosts sum_profile_steps(const LeafCommProfile& profile, bool hops,
                                 bool hop_bytes, WorstOf&& worst_of) {
  CandidateCosts total;
  for (const ProfileStep& step : profile.steps) {
    const double step_hops = worst_of(static_cast<std::size_t>(step.cls)) *
                             static_cast<double>(step.repeat);
    if (hops) total.hops += step_hops;
    if (hop_bytes) total.hop_bytes += step_hops * step.msize;
  }
  return total;
}

/// Memoized Eq. 5 hops between two slots of a frozen SlotTable: the one
/// accessor candidate_cost and the delta session's committed base share.
// hot-path: no-alloc
double memo_hops(const Tree& tree, CostWorkspace::SlotTable& t, std::int32_t a,
                 std::int32_t b) {
  const auto ia = static_cast<std::size_t>(a);
  const auto ib = static_cast<std::size_t>(b);
  const std::size_t k = t.slot_leaf.size();
  double& memo = t.hops[ia * k + ib];
  if (memo < 0.0) {
    // Distinct slots always sit on distinct leaves, so eq5_hops's
    // same-leaf branch is exactly the same-slot (Eq. 2) case.
    memo = eq5_hops(tree, t.slot_leaf[ia], t.slot_leaf[ib], t.slot_comm[ia],
                    t.slot_nodes[ia], t.slot_comm[ib], t.slot_nodes[ib]);
    t.hops[ib * k + ia] = memo;
  }
  return memo;
}

/// Keep a class's top-3 distinct pairs by hops value (descending; ties keep
/// the earlier pair). Three suffice for the delta shortcut: at most two
/// slots move per evaluation, so at most two of the top entries can touch a
/// moved slot — if all three do, the eval falls back to a full class scan.
// hot-path: no-alloc
void top3_insert(std::array<CostWorkspace::DeltaTop, 3>& top, double v,
                 std::int32_t a, std::int32_t b) {
  for (std::size_t i = 0; i < top.size(); ++i) {
    if (v > top[i].v) {
      for (std::size_t j = top.size() - 1; j > i; --j) top[j] = top[j - 1];
      top[i] = {v, a, b};
      return;
    }
  }
}

}  // namespace

// hot-path: no-alloc
double CostModel::contention(const ClusterState& state, NodeId i, NodeId j,
                             const LeafOverlay* overlay) const {
  const SwitchId li = tree_->leaf_of(i);
  const SwitchId lj = tree_->leaf_of(j);
  if (li == lj) return leaf_comm_fraction(state, li, overlay);  // Eq. 2
  // Eq. 3: per-leaf contention plus half the pooled contention at the
  // lowest common switch (links double per level in a fat-tree).
  const double ci =
      static_cast<double>(state.leaf_comm(li) +
                          (overlay ? overlay->extra_comm(li) : 0));
  const double cj =
      static_cast<double>(state.leaf_comm(lj) +
                          (overlay ? overlay->extra_comm(lj) : 0));
  const double ni = state.leaf_nodes(li);
  const double nj = state.leaf_nodes(lj);
  return ci / ni + cj / nj + 0.5 * (ci + cj) / (ni + nj);
}

// hot-path: no-alloc
double CostModel::effective_hops(const ClusterState& state, NodeId i, NodeId j,
                                 const LeafOverlay* overlay) const {
  if (i == j) return 0.0;
  const double d = tree_->distance(i, j);
  return d * (1.0 + contention(state, i, j, overlay));  // Eq. 5
}

// hot-path: no-alloc
std::size_t CostModel::freeze_slots(const ClusterState& state,
                                    std::span<const NodeId> nodes,
                                    bool comm_intensive,
                                    const LeafCommProfile& profile,
                                    CostWorkspace& ws,
                                    CostWorkspace::SlotTable& t) const {
  COMMSCHED_ASSERT_EQ_MSG(
      static_cast<int>(nodes.size()) * profile.ranks_per_node, profile.nprocs,
      "node count does not match the profile's shape");
  const Tree& tree = *tree_;
  const auto n_leaves = static_cast<std::size_t>(tree.leaf_count());
  if (ws.leaf_slot_.size() != n_leaves) ws.leaf_slot_.assign(n_leaves, -1);
  t.slot_leaf.clear();
  t.slot_nnodes.clear();
  for (const NodeId n : nodes) {
    const SwitchId leaf = tree.leaf_of(n);
    std::int32_t& slot =
        ws.leaf_slot_[static_cast<std::size_t>(tree.leaf_index(leaf))];
    if (slot < 0) {
      slot = static_cast<std::int32_t>(t.slot_leaf.size());
      t.slot_leaf.push_back(leaf);
      t.slot_nnodes.push_back(0);
    }
    ++t.slot_nnodes[static_cast<std::size_t>(slot)];
  }
  const std::size_t k = t.slot_leaf.size();
  // Every rank of an overlaid candidate counts toward its leaf's L_comm.
  t.overlay = comm_intensive && options_.include_candidate
                  ? profile.ranks_per_node
                  : 0;
  t.slot_comm.resize(k);
  t.slot_nodes.resize(k);
  for (std::size_t s = 0; s < k; ++s) {
    const SwitchId leaf = t.slot_leaf[s];
    ws.leaf_slot_[static_cast<std::size_t>(tree.leaf_index(leaf))] = -1;
    t.slot_comm[s] = static_cast<double>(state.leaf_comm(leaf) +
                                         t.overlay * t.slot_nnodes[s]);
    t.slot_nodes[s] = static_cast<double>(state.leaf_nodes(leaf));
  }
  COMMSCHED_ASSERT_EQ_MSG(static_cast<int>(k), profile.num_slots,
                          "allocation leaf structure does not match the "
                          "profile's shape (stale ShapeKey?)");
  t.hops.assign(k * k, -1.0);
  t.class_worst.resize(profile.classes.size());
  return k;
}

// Profile kernel: the per-step distinct leaf-pair sets are precomputed (and
// deduplicated into classes) in the LeafCommProfile, so the expensive Eq. 5
// evaluations run once per class pair and each step reduces to one
// multiply-add. Each step's class max ranges over the distinct leaf pairs of
// the step, which equals the reference's max over all rank pairs: duplicates
// cannot change a max, same-node pairs contribute exactly 0 (the reference's
// starting value), and the summation below visits steps in the identical
// order with identical per-step arithmetic, so the result is bit-for-bit
// equal to pair-by-pair Eq. 6 over the block-expanded rank list.
// hot-path: no-alloc
CandidateCosts CostModel::candidate_costs(const ClusterState& state,
                                          std::span<const NodeId> nodes,
                                          bool comm_intensive,
                                          const LeafCommProfile& profile,
                                          CostWorkspace& workspace) const {
  auto& t = workspace.call_;
  freeze_slots(state, nodes, comm_intensive, profile, workspace, t);
  for (std::size_t c = 0; c < profile.classes.size(); ++c) {
    double worst = 0.0;
    for (const auto& [sa, sb] : profile.classes[c].leaf_pairs)
      worst = std::max(worst, memo_hops(*tree_, t, sa, sb));
    t.class_worst[c] = worst;
  }
  return sum_profile_steps(profile, true, true,
                           [&](std::size_t c) { return t.class_worst[c]; });
}

namespace {

// hot-path: no-alloc
bool delta_slot_moved(const CostWorkspace::DeltaSession& d, std::int32_t s) {
  return d.slot_stamp[static_cast<std::size_t>(s)] == d.move_epoch;
}

/// Eq. 5 hops of a class pair under the session's tentative placement:
/// moved slots read their tentative row, the rest the committed base.
// hot-path: no-alloc
double delta_pair_hops(const Tree& tree, const CostWorkspace::DeltaSession& d,
                       std::int32_t a, std::int32_t b) {
  const auto ia = static_cast<std::size_t>(a);
  const auto ib = static_cast<std::size_t>(b);
  const bool ma = delta_slot_moved(d, a);
  const bool mb = delta_slot_moved(d, b);
  return eq5_hops(tree, ma ? d.tent_leaf[ia] : d.slot_leaf[ia],
                  mb ? d.tent_leaf[ib] : d.slot_leaf[ib],
                  ma ? d.tent_comm[ia] : d.slot_comm[ia],
                  ma ? d.tent_nodes[ia] : d.slot_nodes[ia],
                  mb ? d.tent_comm[ib] : d.slot_comm[ib],
                  mb ? d.tent_nodes[ib] : d.slot_nodes[ib]);
}

/// Tentative worst-hops of class `c`: recompute the pairs touching a moved
/// slot, then close the max over the untouched pairs via the top-3 shortcut
/// (descending order makes the first untouched top entry dominate every
/// untouched pair), falling back to a full class scan only when all three
/// top pairs touch moved slots.
// hot-path: no-alloc
double delta_class_worst(const Tree& tree, const CostWorkspace::DeltaSession& d,
                         std::size_t k, std::int32_t c) {
  double worst = 0.0;
  const auto ci = static_cast<std::size_t>(c);
  for (std::size_t m = 0; m < d.last_move_count; ++m) {
    const std::int32_t s = d.last_moves[m].slot;
    const std::size_t row = ci * k + static_cast<std::size_t>(s);
    const auto lo = static_cast<std::size_t>(d.class_slot_pair_off[row]);
    const auto hi = static_cast<std::size_t>(d.class_slot_pair_off[row + 1]);
    for (std::size_t p = lo; p < hi; ++p) {
      const auto id = static_cast<std::size_t>(d.class_slot_pairs[p]);
      worst = std::max(
          worst, delta_pair_hops(tree, d, d.pair_a[id], d.pair_b[id]));
    }
  }
  bool covered = false;
  bool top_full = true;
  for (const CostWorkspace::DeltaTop& t : d.top[ci]) {
    if (t.v < 0.0) {
      top_full = false;
      break;
    }
    if (!delta_slot_moved(d, t.a) && !delta_slot_moved(d, t.b)) {
      worst = std::max(worst, t.v);
      covered = true;
      break;
    }
  }
  if (!covered && top_full) {
    // Untouched pairs may hide below the (all-touched) top-3: scan the
    // class, skipping the pairs recomputed above.
    const auto lo = static_cast<std::size_t>(d.class_pair_off[ci]);
    const auto hi = static_cast<std::size_t>(d.class_pair_off[ci + 1]);
    for (std::size_t p = lo; p < hi; ++p) {
      const std::int32_t a = d.pair_a[p];
      const std::int32_t b = d.pair_b[p];
      if (delta_slot_moved(d, a) || delta_slot_moved(d, b)) continue;
      worst = std::max(worst, d.hops[static_cast<std::size_t>(a) * k +
                                     static_cast<std::size_t>(b)]);
    }
  }
  return worst;
}

/// Rebuild the session's move index for `profile`: rebuilding on every
/// delta_begin (instead of caching by profile address) keeps the index
/// trivially in sync — the cost is one O(pairs) pass on a path that is
/// already doing a full O(pairs) evaluation.
// hot-path: no-alloc
void build_delta_index(const LeafCommProfile& profile, std::size_t k,
                       CostWorkspace::DeltaSession& d) {
  const std::size_t n_classes = profile.classes.size();
  // contract-trusted: no-alloc: index scratch sized to the profile's class/
  // pair counts; capacity is reused across sessions
  d.pair_a.clear();
  d.pair_b.clear();
  d.class_pair_off.assign(n_classes + 1, 0);
  d.slot_seen.assign(k, -1);
  d.slot_class_off.assign(k + 2, 0);
  d.class_slot_pair_off.assign(n_classes * k + 1, 0);

  // Pass 1: flatten pair lists, count per-(class, slot) pair ids and
  // per-slot distinct classes (offsets shifted by one for the fill pass).
  for (std::size_t c = 0; c < n_classes; ++c) {
    for (const auto& [a, b] : profile.classes[c].leaf_pairs) {
      d.pair_a.push_back(a);
      d.pair_b.push_back(b);
      ++d.class_slot_pair_off[c * k + static_cast<std::size_t>(a) + 1];
      if (b != a) ++d.class_slot_pair_off[c * k + static_cast<std::size_t>(b) + 1];
      if (d.slot_seen[static_cast<std::size_t>(a)] !=
          static_cast<std::int32_t>(c)) {
        d.slot_seen[static_cast<std::size_t>(a)] = static_cast<std::int32_t>(c);
        ++d.slot_class_off[static_cast<std::size_t>(a) + 2];
      }
      if (b != a && d.slot_seen[static_cast<std::size_t>(b)] !=
                        static_cast<std::int32_t>(c)) {
        d.slot_seen[static_cast<std::size_t>(b)] = static_cast<std::int32_t>(c);
        ++d.slot_class_off[static_cast<std::size_t>(b) + 2];
      }
    }
    d.class_pair_off[c + 1] =
        static_cast<std::int32_t>(d.pair_a.size());
  }
  for (std::size_t i = 1; i < d.class_slot_pair_off.size(); ++i)
    d.class_slot_pair_off[i] += d.class_slot_pair_off[i - 1];
  for (std::size_t i = 2; i < d.slot_class_off.size(); ++i)
    d.slot_class_off[i] += d.slot_class_off[i - 1];

  // Pass 2: fill. slot_class_off/class_slot_pair_off entries shifted by one
  // act as write cursors and land on the final CSR offsets.
  d.class_slot_pairs.resize(
      static_cast<std::size_t>(d.class_slot_pair_off.back()));
  d.slot_classes.resize(static_cast<std::size_t>(d.slot_class_off.back()));
  d.index_cursor.assign(d.class_slot_pair_off.begin(),
                        d.class_slot_pair_off.end() - 1);
  d.slot_seen.assign(k, -1);
  for (std::size_t c = 0; c < n_classes; ++c) {
    const auto lo = static_cast<std::size_t>(d.class_pair_off[c]);
    const auto hi = static_cast<std::size_t>(d.class_pair_off[c + 1]);
    for (std::size_t p = lo; p < hi; ++p) {
      const auto a = static_cast<std::size_t>(d.pair_a[p]);
      const auto b = static_cast<std::size_t>(d.pair_b[p]);
      d.class_slot_pairs[static_cast<std::size_t>(
          d.index_cursor[c * k + a]++)] = static_cast<std::int32_t>(p);
      if (b != a)
        d.class_slot_pairs[static_cast<std::size_t>(
            d.index_cursor[c * k + b]++)] = static_cast<std::int32_t>(p);
      if (d.slot_seen[a] != static_cast<std::int32_t>(c)) {
        d.slot_seen[a] = static_cast<std::int32_t>(c);
        d.slot_classes[static_cast<std::size_t>(d.slot_class_off[a + 1]++)] =
            static_cast<std::int32_t>(c);
      }
      if (b != a && d.slot_seen[b] != static_cast<std::int32_t>(c)) {
        d.slot_seen[b] = static_cast<std::int32_t>(c);
        d.slot_classes[static_cast<std::size_t>(d.slot_class_off[b + 1]++)] =
            static_cast<std::int32_t>(c);
      }
    }
  }
}

/// Rebuild class `c`'s committed worst hops and top-3 from the session's
/// memo, computing every unset entry.
// hot-path: no-alloc
void settle_class(const Tree& tree, CostWorkspace::DeltaSession& d,
                  std::size_t c) {
  double worst = 0.0;
  auto& top = d.top[c];
  top.fill(CostWorkspace::DeltaTop{});
  const auto lo = static_cast<std::size_t>(d.class_pair_off[c]);
  const auto hi = static_cast<std::size_t>(d.class_pair_off[c + 1]);
  for (std::size_t p = lo; p < hi; ++p) {
    const double v = memo_hops(tree, d, d.pair_a[p], d.pair_b[p]);
    worst = std::max(worst, v);
    top3_insert(top, v, d.pair_a[p], d.pair_b[p]);
  }
  d.class_worst[c] = worst;
}

}  // namespace

// contract-trusted: no-alloc: session setup, once per anneal — already
// O(classes * slots + pairs) by contract; every buffer reuses capacity
// across sessions, so steady-state reruns do not allocate
double CostModel::delta_begin(const ClusterState& state,
                              std::span<const NodeId> nodes,
                              bool comm_intensive,
                              const LeafCommProfile& profile,
                              CostWorkspace& ws) const {
  auto& d = ws.delta_;
  const std::size_t k =
      freeze_slots(state, nodes, comm_intensive, profile, ws, d);
  d.active = true;
  d.pending = false;
  d.profile = &profile;
  d.state = &state;
  d.free_at_begin = state.total_free();

  build_delta_index(profile, k, d);

  // Materialize every class pair's hops, each class's worst and top-3.
  const std::size_t n_classes = profile.classes.size();
  d.top.resize(n_classes);
  for (std::size_t c = 0; c < n_classes; ++c) settle_class(*tree_, d, c);

  // Reset the tentative rows and compute the committed total through the
  // shared step loop (bit-identical to candidate_cost's summation).
  d.move_epoch = 0;
  d.slot_stamp.assign(k, 0);
  d.tent_leaf.assign(k, kInvalidSwitch);
  d.tent_comm.assign(k, 0.0);
  d.tent_nodes.assign(k, 0.0);
  d.class_stamp.assign(n_classes, 0);
  d.tent_class_worst.assign(n_classes, 0.0);
  d.touched_classes.clear();
  d.last_move_count = 0;
  d.total = selected(sum_profile_steps(
      profile, !options_.hop_bytes, options_.hop_bytes,
      [&](std::size_t c) { return d.class_worst[c]; }));
  return d.total;
}

// hot-path: no-alloc
double CostModel::cost_delta(const ClusterState& state,
                             std::span<const SlotMove> moves,
                             CostWorkspace& ws) const {
  auto& d = ws.delta_;
  COMMSCHED_ASSERT_MSG(d.active, "cost_delta without an active delta session");
  COMMSCHED_ASSERT_MSG(d.state == &state && state.total_free() == d.free_at_begin,
                       "cluster state changed under the delta session");
  COMMSCHED_ASSERT(!moves.empty() && moves.size() <= kMaxDeltaMoves);
  const Tree& tree = *tree_;
  const std::size_t k = d.slot_leaf.size();

  ++d.move_epoch;
  for (std::size_t m = 0; m < moves.size(); ++m) {
    const SlotMove& mv = moves[m];
    const auto s = static_cast<std::size_t>(mv.slot);
    COMMSCHED_ASSERT_MSG(mv.slot >= 0 && s < k, "SlotMove slot out of range");
    COMMSCHED_ASSERT_MSG(tree.is_leaf(mv.leaf), "SlotMove target not a leaf");
    COMMSCHED_ASSERT_MSG(d.slot_stamp[s] != d.move_epoch,
                         "duplicate slot in one cost_delta call");
    d.slot_stamp[s] = d.move_epoch;
    d.tent_leaf[s] = mv.leaf;
    d.tent_comm[s] = static_cast<double>(state.leaf_comm(mv.leaf) +
                                         d.overlay * d.slot_nnodes[s]);
    d.tent_nodes[s] = static_cast<double>(state.leaf_nodes(mv.leaf));
    d.last_moves[m] = mv;
  }
  d.last_move_count = moves.size();
  // Distinct-leaves invariant: no other slot (tentatively) sits on a moved
  // slot's target leaf.
  for (const SlotMove& mv : moves) {
    for (std::size_t t = 0; t < k; ++t) {
      if (static_cast<std::int32_t>(t) == mv.slot) continue;
      const SwitchId lt = delta_slot_moved(d, static_cast<std::int32_t>(t))
                              ? d.tent_leaf[t]
                              : d.slot_leaf[t];
      COMMSCHED_ASSERT_MSG(lt != mv.leaf,
                           "SlotMove target leaf already holds another slot");
    }
  }

  // Re-derive the worst-hops of every class touching a moved slot.
  // contract-trusted: no-alloc: touched list bounded by the profile's class
  // count; capacity reused across evaluations
  d.touched_classes.clear();
  for (std::size_t m = 0; m < moves.size(); ++m) {
    const auto s = static_cast<std::size_t>(moves[m].slot);
    const auto lo = static_cast<std::size_t>(d.slot_class_off[s]);
    const auto hi = static_cast<std::size_t>(d.slot_class_off[s + 1]);
    for (std::size_t i = lo; i < hi; ++i) {
      const std::int32_t c = d.slot_classes[i];
      const auto ci = static_cast<std::size_t>(c);
      if (d.class_stamp[ci] == d.move_epoch) continue;
      d.class_stamp[ci] = d.move_epoch;
      d.touched_classes.push_back(c);
      d.tent_class_worst[ci] = delta_class_worst(tree, d, k, c);
    }
  }

  d.last_total = selected(sum_profile_steps(
      *d.profile, !options_.hop_bytes, options_.hop_bytes,
      [&](std::size_t c) {
        return d.class_stamp[c] == d.move_epoch ? d.tent_class_worst[c]
                                                : d.class_worst[c];
      }));
  d.pending = true;
  return d.last_total;
}

// hot-path: no-alloc
void CostModel::delta_commit(CostWorkspace& ws) const {
  auto& d = ws.delta_;
  COMMSCHED_ASSERT_MSG(d.pending, "delta_commit without a pending cost_delta");
  const std::size_t k = d.slot_leaf.size();

  // Promote the moved slots' tentative rows and unset their memo rows, then
  // re-settle every touched class. Every pair touching a moved slot belongs
  // to some touched class, so this recomputes exactly the stale entries.
  for (std::size_t m = 0; m < d.last_move_count; ++m) {
    const auto s = static_cast<std::size_t>(d.last_moves[m].slot);
    d.slot_leaf[s] = d.tent_leaf[s];
    d.slot_comm[s] = d.tent_comm[s];
    d.slot_nodes[s] = d.tent_nodes[s];
    for (std::size_t t = 0; t < k; ++t)
      d.hops[s * k + t] = d.hops[t * k + s] = -1.0;
  }
  for (const std::int32_t c : d.touched_classes)
    settle_class(*tree_, d, static_cast<std::size_t>(c));
  d.total = d.last_total;
  d.pending = false;
}

double CostModel::delta_total(const CostWorkspace& ws) const {
  COMMSCHED_ASSERT_MSG(ws.delta_.active, "no active delta session");
  return ws.delta_.total;
}

SwitchId CostModel::delta_slot_leaf(const CostWorkspace& ws,
                                    std::int32_t slot) const {
  const auto& d = ws.delta_;
  COMMSCHED_ASSERT_MSG(d.active, "no active delta session");
  COMMSCHED_ASSERT(slot >= 0 &&
                   static_cast<std::size_t>(slot) < d.slot_leaf.size());
  return d.slot_leaf[static_cast<std::size_t>(slot)];
}

int CostModel::delta_slot_nnodes(const CostWorkspace& ws,
                                 std::int32_t slot) const {
  const auto& d = ws.delta_;
  COMMSCHED_ASSERT_MSG(d.active, "no active delta session");
  COMMSCHED_ASSERT(slot >= 0 &&
                   static_cast<std::size_t>(slot) < d.slot_leaf.size());
  return d.slot_nnodes[static_cast<std::size_t>(slot)];
}

}  // namespace commsched
