#include <gtest/gtest.h>

#include <vector>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "core/cost_model.hpp"
#include "topology/builders.hpp"
#include "util/assert.hpp"

namespace commsched {
namespace {

// Committed-state Eq. 6 of `pattern` with `rpn` ranks on each of `nodes`.
double eq6(const CostModel& model, const ClusterState& state,
           const std::vector<NodeId>& nodes, Pattern pattern, int rpn) {
  const LeafCommProfile profile = make_leaf_comm_profile(
      pattern, 1.0, make_shape_key(model.tree(), nodes), rpn);
  CostWorkspace workspace;
  return model.candidate_cost(state, nodes, false, profile, workspace);
}

TEST(ExpandRanksPerNodeTest, BlockDistribution) {
  // Ranks 0..rpn-1 run on the first node, and so on: a 6-rank ring on two
  // nodes at 3 ranks/node keeps 4 of its 6 neighbour pairs on-node (a
  // cyclic distribution would keep none).
  const Tree tree = make_two_level_tree(2, 8);
  const ShapeKey shape = make_shape_key(tree, std::vector<NodeId>{5, 9});
  const LeafCommProfile three =
      make_leaf_comm_profile(Pattern::kRing, 1.0, shape, 3);
  ASSERT_EQ(three.nprocs, 6);
  ASSERT_EQ(three.steps.size(), 1u);
  EXPECT_EQ(three.steps[0].rank_pairs, 6);
  EXPECT_EQ(three.steps[0].same_node_pairs, 4);
  const LeafCommProfile one =
      make_leaf_comm_profile(Pattern::kRing, 1.0, shape, 1);
  ASSERT_EQ(one.steps.size(), 1u);
  EXPECT_EQ(one.steps[0].same_node_pairs, 0);
  EXPECT_THROW(make_leaf_comm_profile(Pattern::kRing, 1.0, shape, 0),
               InvariantError);
}

TEST(ExpandRanksPerNodeTest, IntraNodePairsAreFree) {
  // 4 ranks on 2 nodes: RD step 0 pairs (0,1) and (2,3) stay on-node ->
  // hops 0; step 1 pairs (0,2),(1,3) cross nodes.
  const Tree tree = make_figure2_tree();
  const ClusterState state(tree);
  const CostModel model(tree);
  const std::vector<NodeId> nodes{0, 4};  // different leaves
  // Step 0 max hops = 0 (same node); step 1 max = cross-leaf distance 4.
  EXPECT_DOUBLE_EQ(eq6(model, state, nodes, Pattern::kRecursiveDoubling, 2),
                   4.0);
}

TEST(ExpandRanksPerNodeTest, MultiRankLowersPerRankCost) {
  // The same 8-rank job on 8 spread nodes vs 2 ranks/node on 4 nodes:
  // on-node pairs make the dense variant strictly cheaper.
  const Tree tree = make_two_level_tree(2, 8);
  const ClusterState state(tree);
  const CostModel model(tree);
  const std::vector<NodeId> eight{0, 1, 2, 3, 8, 9, 10, 11};
  const std::vector<NodeId> four{0, 1, 8, 9};
  EXPECT_LT(eq6(model, state, four, Pattern::kRecursiveHalvingVD, 2),
            eq6(model, state, eight, Pattern::kRecursiveHalvingVD, 1));
}

}  // namespace
}  // namespace commsched
