// Differential tests for the delta-cost session (DESIGN.md "Delta-cost
// evaluation & search allocators"): every cost_delta over fuzzed move
// sequences must agree BIT-FOR-BIT (EXPECT_EQ on doubles, not near) with a
// full candidate_cost recompute of the moved placement, across the paper's
// five patterns, fragmented and contiguous shapes, rank expansion, hop-byte
// weighting, and the candidate-overlay toggle — with commits interleaved so
// both tentative and committed bases are exercised.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "core/cost_model.hpp"
#include "topology/builders.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace commsched {
namespace {

constexpr Pattern kAllPatterns[] = {
    Pattern::kRecursiveDoubling, Pattern::kRecursiveHalvingVD,
    Pattern::kBinomial, Pattern::kRing, Pattern::kPairwiseAlltoall};

// Shadow of one delta session kept by the test: slot -> leaf plus the node
// counts, from which any assignment can be materialized into a node list
// for the independent full recompute.
struct ShadowPlacement {
  std::vector<SwitchId> slot_leaf;
  std::vector<int> slot_nnodes;
  std::vector<std::int32_t> run_slots;  // shape runs, slot per run
  std::vector<int> run_counts;
};

// Rebuild a node list whose slot -> leaf mapping is `leaf_of_slot`,
// replaying the shape's runs and drawing each slot's nodes from its leaf in
// ascending node-id order. Which concrete nodes a slot holds inside a leaf
// is irrelevant to Eq. 2-6 (contention is per leaf), but the list must be
// duplicate-free, which the pairwise-distinct-leaves invariant guarantees.
std::vector<NodeId> materialize(const Tree& tree,
                                const ShadowPlacement& shadow,
                                const std::vector<SwitchId>& leaf_of_slot) {
  std::vector<int> cursor(shadow.slot_leaf.size(), 0);
  std::vector<NodeId> out;
  for (std::size_t r = 0; r < shadow.run_slots.size(); ++r) {
    const auto s = static_cast<std::size_t>(shadow.run_slots[r]);
    const auto leaf_nodes = tree.nodes_of_leaf(leaf_of_slot[s]);
    for (int c = 0; c < shadow.run_counts[r]; ++c)
      out.push_back(leaf_nodes[static_cast<std::size_t>(cursor[s]++)]);
  }
  return out;
}

ShadowPlacement shadow_of(const CostModel& model, const CostWorkspace& ws,
                          const ShapeKey& shape) {
  ShadowPlacement shadow;
  shadow.slot_leaf.resize(static_cast<std::size_t>(shape.num_slots));
  shadow.slot_nnodes.resize(static_cast<std::size_t>(shape.num_slots));
  for (std::int32_t s = 0; s < shape.num_slots; ++s) {
    shadow.slot_leaf[static_cast<std::size_t>(s)] = model.delta_slot_leaf(ws, s);
    shadow.slot_nnodes[static_cast<std::size_t>(s)] =
        model.delta_slot_nnodes(ws, s);
  }
  for (const auto& [slot, count] : shape.runs) {
    shadow.run_slots.push_back(slot);
    shadow.run_counts.push_back(count);
  }
  return shadow;
}

// Draw a feasible move set against `leaf_of_slot`: mostly single-slot
// reassignments to a slot-free leaf, sometimes a two-slot swap.
std::size_t draw_moves(Rng& rng, const Tree& tree,
                       const std::vector<SwitchId>& leaf_of_slot,
                       std::array<SlotMove, kMaxDeltaMoves>& moves) {
  const auto k = static_cast<std::int64_t>(leaf_of_slot.size());
  const bool swap = k >= 2 && rng.bernoulli(0.3);
  if (swap) {
    const auto a = rng.uniform_int(0, k - 1);
    auto b = rng.uniform_int(0, k - 2);
    if (b >= a) ++b;
    moves[0] = {static_cast<std::int32_t>(a),
                leaf_of_slot[static_cast<std::size_t>(b)]};
    moves[1] = {static_cast<std::int32_t>(b),
                leaf_of_slot[static_cast<std::size_t>(a)]};
    return 2;
  }
  const auto s = rng.uniform_int(0, k - 1);
  // Uniform over leaves no slot occupies (k < leaf_count by construction).
  for (;;) {
    const auto leaves = tree.leaves();
    const auto t = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(leaves.size()) - 1));
    const SwitchId target = leaves[t];
    bool occupied = false;
    for (const SwitchId leaf : leaf_of_slot) occupied |= (leaf == target);
    if (occupied) continue;
    moves[0] = {static_cast<std::int32_t>(s), target};
    return 1;
  }
}

// 8 leaves x 4 nodes; background jobs load some leaves unevenly so Eq. 2/3
// contention differs per leaf and moves genuinely change the cost.
class CostDeltaFixture : public ::testing::Test {
 protected:
  CostDeltaFixture() : tree_(make_two_level_tree(8, 4)), state_(tree_) {
    state_.allocate(100, /*comm=*/true, std::vector<NodeId>{0, 1, 2});
    state_.allocate(101, /*comm=*/false, std::vector<NodeId>{4, 5});
    state_.allocate(102, /*comm=*/true, std::vector<NodeId>{8, 9, 10, 11});
    state_.allocate(103, /*comm=*/true, std::vector<NodeId>{20, 21});
  }

  Tree tree_;
  ClusterState state_;
};

TEST_F(CostDeltaFixture, FuzzedMoveSequencesMatchFullRecomputeBitForBit) {
  const struct {
    const char* name;
    std::vector<NodeId> seed;
  } shapes[] = {
      // One leaf, rank-contiguous.
      {"contiguous", {12, 13, 14, 15}},
      // Three leaves, runs of length 1-2 with a revisit of the first leaf.
      {"fragmented", {16, 24, 17, 28, 29, 18}},
  };
  for (const Pattern pattern : kAllPatterns)
    for (const auto& shape_case : shapes)
      for (const int rpn : {1, 2})
        for (const bool hop_bytes : {false, true})
          for (const bool include_candidate : {true, false}) {
            const std::string label =
                std::string(pattern_name(pattern)) + "/" + shape_case.name +
                "/rpn=" + std::to_string(rpn) +
                (hop_bytes ? "/hop-bytes" : "/hops") +
                (include_candidate ? "/overlay" : "/no-overlay");
            const CostModel model(
                tree_, CostOptions{.hop_bytes = hop_bytes,
                                   .include_candidate = include_candidate});
            const ShapeKey shape = make_shape_key(tree_, shape_case.seed);
            const LeafCommProfile profile =
                make_leaf_comm_profile(pattern, 1024.0, shape, rpn);

            CostWorkspace ws;        // session under test
            CostWorkspace full_ws;   // oracle scratch
            const double begin = model.delta_begin(
                state_, shape_case.seed, /*comm_intensive=*/true, profile, ws);
            EXPECT_EQ(begin,
                      model.candidate_cost(state_, shape_case.seed, true,
                                           profile, full_ws))
                << label;

            const ShadowPlacement shadow = shadow_of(model, ws, shape);
            std::vector<SwitchId> committed = shadow.slot_leaf;
            Rng rng(splitmix64(0x5eedf00d ^
                               (static_cast<std::uint64_t>(pattern) * 131 +
                                static_cast<std::uint64_t>(rpn))));
            std::array<SlotMove, kMaxDeltaMoves> moves{};
            bool pending = false;
            std::vector<SwitchId> tentative;
            for (int it = 0; it < 40; ++it) {
              const std::size_t count =
                  draw_moves(rng, tree_, committed, moves);
              tentative = committed;
              for (std::size_t m = 0; m < count; ++m)
                tentative[static_cast<std::size_t>(moves[m].slot)] =
                    moves[m].leaf;
              const double delta = model.cost_delta(
                  state_, std::span<const SlotMove>(moves.data(), count), ws);
              const auto moved_nodes =
                  materialize(tree_, shadow, tentative);
              // Odd iterations price the oracle on the session's own
              // workspace, between cost_delta and delta_commit, as
              // SaAllocator's verify_stride does: candidate_cost must leave
              // the session's table alone.
              CostWorkspace& oracle_ws = it % 2 == 1 ? ws : full_ws;
              EXPECT_EQ(delta, model.candidate_cost(state_, moved_nodes, true,
                                                    profile, oracle_ws))
                  << label << "/it=" << it;
              pending = true;
              // Commit roughly half the evaluations; the rest stay
              // tentative and must be discarded by the next evaluation.
              if (rng.bernoulli(0.5)) {
                model.delta_commit(ws);
                committed = tentative;
                EXPECT_EQ(model.delta_total(ws),
                          model.candidate_cost(state_, moved_nodes, true,
                                               profile, oracle_ws))
                    << label << "/it=" << it;
                pending = false;
              }
            }
            (void)pending;
            // The committed base is still priced exactly after the walk.
            EXPECT_EQ(model.delta_total(ws),
                      model.candidate_cost(
                          state_, materialize(tree_, shadow, committed), true,
                          profile, full_ws))
                << label;
          }
}

TEST_F(CostDeltaFixture, BeginMatchesFullForComputeJobsToo) {
  // comm_intensive=false: no overlay on either path.
  const std::vector<NodeId> seed{16, 24, 17, 28};
  const CostModel model(tree_, CostOptions{.hop_bytes = true});
  const ShapeKey shape = make_shape_key(tree_, seed);
  const LeafCommProfile profile =
      make_leaf_comm_profile(Pattern::kRing, 512.0, shape, 1);
  CostWorkspace ws, full_ws;
  EXPECT_EQ(model.delta_begin(state_, seed, /*comm_intensive=*/false, profile,
                              ws),
            model.candidate_cost(state_, seed, false, profile, full_ws));
}

TEST_F(CostDeltaFixture, SessionMisuseTripsInvariants) {
  const std::vector<NodeId> seed{12, 13, 16, 17};
  const CostModel model(tree_, CostOptions{});
  const ShapeKey shape = make_shape_key(tree_, seed);
  const LeafCommProfile profile =
      make_leaf_comm_profile(Pattern::kBinomial, 256.0, shape, 1);
  CostWorkspace ws;

  // No active session.
  const SlotMove move{0, tree_.leaves()[7]};
  EXPECT_THROW(model.cost_delta(state_, std::span<const SlotMove>(&move, 1),
                                ws),
               InvariantError);
  EXPECT_THROW(model.delta_commit(ws), InvariantError);

  ASSERT_GT(model.delta_begin(state_, seed, true, profile, ws), 0.0);
  // Commit without a pending evaluation.
  EXPECT_THROW(model.delta_commit(ws), InvariantError);
  // Two slots on the same leaf violates the distinct-leaves invariant.
  const SlotMove collide{1, model.delta_slot_leaf(ws, 0)};
  EXPECT_THROW(
      model.cost_delta(state_, std::span<const SlotMove>(&collide, 1), ws),
      InvariantError);
}

TEST_F(CostDeltaFixture, LongWalkOnWiderMachineStaysExact) {
  // A deeper fuzz on one configuration: 200 moves through a 16-leaf tree
  // with a 5-slot pairwise-alltoall job, committing aggressively.
  const Tree tree = make_two_level_tree(16, 4);
  ClusterState state(tree);
  state.allocate(1, /*comm=*/true, std::vector<NodeId>{0, 1, 4, 5, 6});
  state.allocate(2, /*comm=*/true, std::vector<NodeId>{16, 17, 18});
  const std::vector<NodeId> seed{8, 9, 12, 20, 24, 25, 28, 33};
  const CostModel model(tree, CostOptions{.hop_bytes = true});
  const ShapeKey shape = make_shape_key(tree, seed);
  const LeafCommProfile profile =
      make_leaf_comm_profile(Pattern::kPairwiseAlltoall, 64.0, shape, 2);

  CostWorkspace ws, full_ws;
  model.delta_begin(state, seed, true, profile, ws);
  const ShadowPlacement shadow = shadow_of(model, ws, shape);
  std::vector<SwitchId> committed = shadow.slot_leaf;
  Rng rng(20200817);
  std::array<SlotMove, kMaxDeltaMoves> moves{};
  for (int it = 0; it < 200; ++it) {
    const std::size_t count = draw_moves(rng, tree, committed, moves);
    auto tentative = committed;
    for (std::size_t m = 0; m < count; ++m)
      tentative[static_cast<std::size_t>(moves[m].slot)] = moves[m].leaf;
    const double delta = model.cost_delta(
        state, std::span<const SlotMove>(moves.data(), count), ws);
    ASSERT_EQ(delta,
              model.candidate_cost(state, materialize(tree, shadow, tentative),
                                   true, profile, full_ws))
        << "it=" << it;
    if (rng.bernoulli(0.8)) {
      model.delta_commit(ws);
      committed = tentative;
    }
  }
}

}  // namespace
}  // namespace commsched
