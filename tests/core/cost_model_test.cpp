#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "collectives/comm_cache.hpp"
#include "collectives/schedule.hpp"
#include "core/allocator_common.hpp"
#include "topology/builders.hpp"
#include "util/assert.hpp"

namespace commsched {
namespace {

// Eq. 6 of `pattern` on `nodes` (one rank per node) through the profile
// kernel; comm_intensive = false prices the committed state alone.
double eq6(const CostModel& model, const ClusterState& state,
           const std::vector<NodeId>& nodes, bool comm_intensive,
           Pattern pattern, double msize = 1.0) {
  CommCache cache(msize);
  CostWorkspace workspace;
  return profiled_candidate_cost(model, cache, state, nodes, comm_intensive,
                                 pattern, workspace);
}

// The paper's Figure 5 scenario: Job1 (comm) on n0,n1,n4,n5; Job2 (comm) on
// n2,n3; n6,n7 free — on the Figure 2 fat-tree.
class Figure5Fixture : public ::testing::Test {
 protected:
  Figure5Fixture() : tree_(make_figure2_tree()), state_(tree_), model_(tree_) {
    state_.allocate(1, /*comm=*/true, std::vector<NodeId>{0, 1, 4, 5});
    state_.allocate(2, /*comm=*/true, std::vector<NodeId>{2, 3});
  }
  Tree tree_;
  ClusterState state_;
  CostModel model_;
};

TEST_F(Figure5Fixture, SameLeafContentionMatchesPaper) {
  // C(n0, n1) = 4/4 = 1 (Eq. 2).
  EXPECT_DOUBLE_EQ(model_.contention(state_, 0, 1), 1.0);
}

TEST_F(Figure5Fixture, CrossLeafContentionMatchesPaper) {
  // C(n0, n4) = 4/4 + 2/4 + 0.5*(4+2)/(4+4) = 1.875 (Eq. 3).
  EXPECT_DOUBLE_EQ(model_.contention(state_, 0, 4), 1.875);
}

TEST_F(Figure5Fixture, EffectiveHopsMatchPaper) {
  // Hops(n0,n1) = 2*(1+1) = 4 and Hops(n0,n4) = 4*(1+1.875) = 11.5 (Eq. 5).
  EXPECT_DOUBLE_EQ(model_.effective_hops(state_, 0, 1), 4.0);
  EXPECT_DOUBLE_EQ(model_.effective_hops(state_, 0, 4), 11.5);
}

TEST_F(Figure5Fixture, SelfHopsAreZero) {
  EXPECT_DOUBLE_EQ(model_.effective_hops(state_, 3, 3), 0.0);
}

TEST_F(Figure5Fixture, ContentionIsSymmetric) {
  EXPECT_DOUBLE_EQ(model_.contention(state_, 0, 4),
                   model_.contention(state_, 4, 0));
}

TEST_F(Figure5Fixture, AllocationCostSumsPerStepMaxima) {
  // Job1's 4 nodes (n0,n1,n4,n5) with RD over 4 ranks: step 0 pairs
  // (0,1),(2,3) -> nodes (n0,n1),(n4,n5); step 1 pairs (0,2),(1,3) ->
  // (n0,n4),(n1,n5).
  const std::vector<NodeId> nodes{0, 1, 4, 5};
  // Step 0 max: Hops(n0,n1) = 4 vs Hops(n4,n5) = 2*(1+2/4) = 3 -> 4.
  // Step 1: both pairs cross leaves -> Hops = 11.5.
  const double cost =
      eq6(model_, state_, nodes, false, Pattern::kRecursiveDoubling);
  EXPECT_DOUBLE_EQ(cost, 4.0 + 11.5);
}

TEST_F(Figure5Fixture, HopBytesVariantWeightsByMessageSize) {
  CostModel hb(tree_, CostOptions{.hop_bytes = true});
  const std::vector<NodeId> nodes{0, 1, 4, 5};
  EXPECT_DOUBLE_EQ(
      eq6(hb, state_, nodes, false, Pattern::kRecursiveDoubling, 3.0),
      (4.0 + 11.5) * 3.0);
}

TEST(CostModelTest, CandidateOverlayCountsTheJobItself) {
  // Empty cluster: a candidate comm job's own nodes must create contention
  // (the Figure 5 arithmetic includes the job under consideration).
  const Tree tree = make_figure2_tree();
  const ClusterState state(tree);
  const CostModel model(tree);
  const std::vector<NodeId> nodes{0, 1};
  // With overlay: C = 2/4 = 0.5 -> hops = 2*1.5 = 3.
  EXPECT_DOUBLE_EQ(
      eq6(model, state, nodes, true, Pattern::kRecursiveDoubling), 3.0);
  // Committed-state pricing of the same pair on the empty cluster: C = 0.
  EXPECT_DOUBLE_EQ(
      eq6(model, state, nodes, false, Pattern::kRecursiveDoubling), 2.0);
}

TEST(CostModelTest, ComputeCandidateAddsNoContention) {
  const Tree tree = make_figure2_tree();
  const ClusterState state(tree);
  const CostModel model(tree);
  const std::vector<NodeId> nodes{0, 1};
  EXPECT_DOUBLE_EQ(
      eq6(model, state, nodes, false, Pattern::kRecursiveDoubling), 2.0);
}

TEST(CostModelTest, IncludeCandidateOptionCanBeDisabled) {
  const Tree tree = make_figure2_tree();
  const ClusterState state(tree);
  const CostModel model(tree, CostOptions{.include_candidate = false});
  const std::vector<NodeId> nodes{0, 1};
  EXPECT_DOUBLE_EQ(
      eq6(model, state, nodes, true, Pattern::kRecursiveDoubling), 2.0);
}

TEST(CostModelTest, MoreNeighborCommJobsRaiseContention) {
  const Tree tree = make_figure2_tree();
  ClusterState state(tree);
  const CostModel model(tree);
  const double before = model.contention(state, 0, 1);
  state.allocate(1, true, std::vector<NodeId>{2, 3});
  const double after = model.contention(state, 0, 1);
  EXPECT_GT(after, before);
  // Compute-intensive neighbors do not add contention (Eq. 2 uses L_comm).
  state.allocate(2, false, std::vector<NodeId>{0});
  EXPECT_DOUBLE_EQ(model.contention(state, 0, 1), after);
}

TEST(CostModelTest, CrossLeafCostsExceedSameLeafUnderEqualLoad) {
  const Tree tree = make_figure2_tree();
  ClusterState state(tree);
  state.allocate(1, true, std::vector<NodeId>{0, 4});
  const CostModel model(tree);
  EXPECT_GT(model.effective_hops(state, 0, 4), model.effective_hops(state, 0, 1));
}

TEST(CostModelTest, RepeatedStepsScaleCost) {
  const Tree tree = make_figure2_tree();
  const ClusterState state(tree);
  const CostModel model(tree);
  // A 4-rank ring is one step repeated 3 times.
  const std::vector<NodeId> nodes{0, 1, 2, 3};
  const double one_round =
      model.effective_hops(state, 0, 1);  // all pairs same leaf, C = 0 -> 2
  EXPECT_DOUBLE_EQ(eq6(model, state, nodes, false, Pattern::kRing),
                   3 * one_round);
}

TEST(CostModelTest, ThreeLevelDistancesEnterCost) {
  const Tree tree = make_three_level_tree(2, 2, 4);
  const ClusterState state(tree);
  const CostModel model(tree);
  // No load anywhere: hops reduce to pure distance.
  EXPECT_DOUBLE_EQ(model.effective_hops(state, 0, 1), 2.0);
  EXPECT_DOUBLE_EQ(model.effective_hops(state, 0, 5), 4.0);
  EXPECT_DOUBLE_EQ(model.effective_hops(state, 0, 12), 6.0);
}

TEST(CostModelTest, ProfileShapeMismatchThrows) {
  const Tree tree = make_figure2_tree();
  const ClusterState state(tree);
  const CostModel model(tree);
  const std::vector<NodeId> shape_nodes{0, 1};  // two nodes under s0
  const LeafCommProfile profile =
      make_leaf_comm_profile(Pattern::kRecursiveDoubling, 1.0,
                             make_shape_key(tree, shape_nodes), 1);
  // Three nodes for the profile's two ranks: the nprocs guard.
  const std::vector<NodeId> too_many{0, 1, 2};
  // Two nodes, but under two leaves: the num_slots guard.
  const std::vector<NodeId> two_leaves{0, 4};
  for (const bool comm : {false, true}) {
    for (const auto& nodes : {too_many, two_leaves}) {
      // A fresh workspace per call: the kernel does not restore its
      // scratch when a guard throws.
      CostWorkspace ws;
      EXPECT_THROW(model.candidate_cost(state, nodes, comm, profile, ws),
                   InvariantError);
      CostWorkspace delta_ws;
      EXPECT_THROW(model.delta_begin(state, nodes, comm, profile, delta_ws),
                   InvariantError);
    }
  }
  CostWorkspace ws;
  EXPECT_DOUBLE_EQ(model.candidate_cost(state, shape_nodes, false, profile, ws),
                   2.0);
}

TEST(LeafOverlayTest, AddAndClear) {
  const Tree tree = make_figure2_tree();
  LeafOverlay overlay(tree);
  const SwitchId s0 = *tree.switch_by_name("s0");
  const SwitchId s1 = *tree.switch_by_name("s1");
  EXPECT_EQ(overlay.extra_comm(s0), 0);
  overlay.add_nodes(tree, std::vector<NodeId>{0, 1, 4});
  EXPECT_EQ(overlay.extra_comm(s0), 2);
  EXPECT_EQ(overlay.extra_comm(s1), 1);
  overlay.clear();
  EXPECT_EQ(overlay.extra_comm(s0), 0);
  EXPECT_EQ(overlay.extra_comm(s1), 0);
}

}  // namespace
}  // namespace commsched
