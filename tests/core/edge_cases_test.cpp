// Boundary behaviours that the scenario and property suites do not pin
// explicitly: saturated leaves in Eq. 1, single-node jobs, full-machine
// jobs, and the §3.1 lowest-level-switch walk on deeper trees.
#include <gtest/gtest.h>

#include <vector>

#include "collectives/comm_cache.hpp"
#include "core/allocator_common.hpp"
#include "core/allocator_factory.hpp"
#include "core/cost_model.hpp"
#include "topology/builders.hpp"

namespace commsched {
namespace {

TEST(CommunicationRatioEdgeTest, FullySaturatedCommLeaf) {
  // All 4 nodes busy with comm jobs: ratio = 4/4 + 4/4 = 2 (the maximum).
  const Tree tree = make_figure2_tree();
  ClusterState state(tree);
  state.allocate(1, true, std::vector<NodeId>{0, 1, 2, 3});
  EXPECT_DOUBLE_EQ(communication_ratio(state, tree.leaf_of(0)), 2.0);
}

TEST(CommunicationRatioEdgeTest, FullComputeLeafStillRanksAboveIdle) {
  const Tree tree = make_figure2_tree();
  ClusterState state(tree);
  state.allocate(1, false, std::vector<NodeId>{0, 1, 2, 3});
  // 0/4 + 4/4 = 1: busier than idle (0), quieter than comm-saturated (2).
  EXPECT_DOUBLE_EQ(communication_ratio(state, tree.leaf_of(0)), 1.0);
  EXPECT_DOUBLE_EQ(communication_ratio(state, tree.leaf_of(4)), 0.0);
}

TEST(AllocatorEdgeTest, SingleNodeJobsAlwaysPlaceable) {
  const Tree tree = make_two_level_tree(3, 4);
  ClusterState state(tree);
  // Leave exactly one node free.
  std::vector<NodeId> busy;
  for (NodeId n = 0; n < 11; ++n) busy.push_back(n);
  state.allocate(1, true, busy);
  for (const AllocatorKind kind : kAllAllocatorKinds) {
    AllocationRequest req;
    req.job = 2;
    req.num_nodes = 1;
    req.comm_intensive = true;
    const auto nodes = make_allocator(kind)->select(state, req);
    ASSERT_TRUE(nodes.has_value()) << allocator_kind_name(kind);
    EXPECT_EQ((*nodes)[0], NodeId{11});
  }
}

TEST(AllocatorEdgeTest, FullMachineJobTakesEverything) {
  const Tree tree = make_two_level_tree(3, 4);
  const ClusterState state(tree);
  for (const AllocatorKind kind : kAllAllocatorKinds) {
    AllocationRequest req;
    req.job = 1;
    req.num_nodes = 12;
    req.comm_intensive = true;
    req.pattern = Pattern::kRecursiveHalvingVD;
    const auto nodes = make_allocator(kind)->select(state, req);
    ASSERT_TRUE(nodes.has_value()) << allocator_kind_name(kind);
    EXPECT_EQ(nodes->size(), 12u);
  }
}

TEST(LowestLevelSwitchEdgeTest, ThreeLevelWalk) {
  // 2 groups x 2 leaves x 4 nodes. With one group half-busy, a 6-node job
  // fits a level-2 group; a 13-node job needs the root.
  const Tree tree = make_three_level_tree(2, 2, 4);
  ClusterState state(tree);
  state.allocate(1, false, std::vector<NodeId>{0, 1, 2, 3});
  const SwitchId found6 = find_lowest_level_switch(state, 6);
  EXPECT_EQ(tree.level(found6), 2);
  // Best fit: the half-busy group (4 free) cannot host 6; the idle group
  // (8 free) can.
  EXPECT_EQ(state.free_under(found6), 8);
  const SwitchId found13 = find_lowest_level_switch(state, 13);
  EXPECT_EQ(found13, kInvalidSwitch);  // only 12 free in total
  state.release(1);
  EXPECT_EQ(find_lowest_level_switch(state, 13), tree.root());
}

TEST(CostModelEdgeTest, SingleRankScheduleCostsNothing) {
  const Tree tree = make_figure2_tree();
  const ClusterState state(tree);
  const CostModel model(tree);
  CommCache cache(1.0);
  CostWorkspace ws;
  const std::vector<NodeId> one{3};
  for (const Pattern p :
       {Pattern::kRecursiveDoubling, Pattern::kRing, Pattern::kBinomial})
    EXPECT_DOUBLE_EQ(
        profiled_candidate_cost(model, cache, state, one, true, p, ws), 0.0);
}

TEST(CostModelEdgeTest, EmptyScheduleCostsNothing) {
  const Tree tree = make_figure2_tree();
  const ClusterState state(tree);
  const CostModel model(tree);
  const std::vector<NodeId> nodes{0, 1};
  // The shape of a 2-rank job, with no communication steps.
  LeafCommProfile profile =
      make_leaf_comm_profile(Pattern::kRecursiveDoubling, 1.0,
                             make_shape_key(tree, nodes), 1);
  profile.classes.clear();
  profile.steps.clear();
  CostWorkspace ws;
  EXPECT_DOUBLE_EQ(model.candidate_cost(state, nodes, true, profile, ws), 0.0);
}

}  // namespace
}  // namespace commsched
