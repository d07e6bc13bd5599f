#include "mapping/affinity.hpp"

#include <gtest/gtest.h>

#include <set>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "core/allocator_common.hpp"
#include "core/cost_model.hpp"
#include "mapping/reorder.hpp"
#include "support/cost_oracle.hpp"
#include "topology/builders.hpp"
#include "util/assert.hpp"

namespace commsched {
namespace {

TEST(AffinityMatrixTest, AccumulatesBytesSymmetrically) {
  CommSchedule sched;
  CommStep step;
  step.msize = 10.0;
  step.repeat = 3;
  step.pairs = {{0, 1}, {2, 3}};
  sched.push_back(step);
  CommStep step2;
  step2.msize = 5.0;
  step2.pairs = {{0, 1}};
  sched.push_back(step2);

  const AffinityMatrix m(4, sched);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 35.0);  // 10*3 + 5
  EXPECT_DOUBLE_EQ(m.at(1, 0), 35.0);
  EXPECT_DOUBLE_EQ(m.at(2, 3), 30.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 0.0);
  const int group[] = {1, 2};
  EXPECT_DOUBLE_EQ(m.to_group(0, group), 35.0);
}

TEST(AffinityMatrixTest, RejectsOversizedAndBadRanks) {
  const CommSchedule empty;
  EXPECT_THROW(AffinityMatrix(513, empty), InvariantError);
  CommSchedule bad;
  CommStep step;
  step.msize = 1.0;
  step.pairs = {{0, 7}};
  bad.push_back(step);
  EXPECT_THROW(AffinityMatrix(4, bad), InvariantError);
}

// A schedule whose ONLY heavy exchanges are between ranks i and i + p/2:
// the opposite of what rank-adjacent (switch-major) mapping optimizes.
CommSchedule far_heavy_schedule(int p) {
  CommSchedule sched;
  CommStep heavy;
  heavy.msize = 100.0;
  for (int i = 0; i < p / 2; ++i) heavy.pairs.emplace_back(i, i + p / 2);
  sched.push_back(heavy);
  CommStep light;
  light.msize = 1.0;
  for (int i = 0; i + 1 < p; i += 2) light.pairs.emplace_back(i, i + 1);
  sched.push_back(light);
  return sched;
}

TEST(AffinityMapTest, CoLocatesHeavyFarPairs) {
  const Tree tree = make_two_level_tree(2, 4);
  const std::vector<NodeId> nodes{0, 1, 2, 3, 4, 5, 6, 7};
  const auto sched = far_heavy_schedule(8);
  const auto mapped = affinity_map(tree, nodes, sched);
  // Every heavy pair (i, i+4) must share a leaf.
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(tree.leaf_of(mapped[static_cast<std::size_t>(i)]),
              tree.leaf_of(mapped[static_cast<std::size_t>(i + 4)]))
        << "heavy pair (" << i << "," << i + 4 << ") split across leaves";
}

TEST(AffinityMapTest, BeatsSwitchMajorOnFarHeavySchedules) {
  const Tree tree = make_two_level_tree(2, 4);
  ClusterState state(tree);
  const CostModel model(tree, CostOptions{.hop_bytes = true});
  const std::vector<NodeId> nodes{0, 1, 2, 3, 4, 5, 6, 7};
  const auto sched = far_heavy_schedule(8);
  const auto major = switch_major_order(tree, nodes);
  const auto mapped = affinity_map(tree, nodes, sched);
  // A hand-built schedule has no Pattern to profile: price it with the
  // pair-by-pair oracle.
  EXPECT_LT(oracle_candidate_cost(model, state, mapped, 1, true, sched),
            oracle_candidate_cost(model, state, major, 1, true, sched));
}

TEST(AffinityMapTest, IsAPermutationHostingEveryRank) {
  const Tree tree = make_two_level_tree(3, 4);
  const std::vector<NodeId> nodes{0, 1, 4, 5, 8, 9, 10, 2};
  const auto sched =
      make_schedule(Pattern::kRecursiveHalvingVD, 8, 1024.0);
  const auto mapped = affinity_map(tree, nodes, sched);
  ASSERT_EQ(mapped.size(), nodes.size());
  const std::set<NodeId> a(nodes.begin(), nodes.end());
  const std::set<NodeId> b(mapped.begin(), mapped.end());
  EXPECT_EQ(a, b);
  for (const NodeId n : mapped) EXPECT_NE(n, kInvalidNode);
}

TEST(AffinityMapTest, NeverWorseThanSwitchMajorForRhvd) {
  // For the vector-doubling allgather the greedy grouping should find the
  // same contiguous-block structure switch-major produces (or an equally
  // good permutation of it).
  const Tree tree = make_two_level_tree(2, 8);
  ClusterState state(tree);
  const CostModel model(tree, CostOptions{.hop_bytes = true});
  const std::vector<NodeId> nodes{0, 1, 2, 3, 8, 9, 10, 11};
  const auto sched = make_schedule(Pattern::kRecursiveHalvingVD, 8, 1.0);
  const auto major = switch_major_order(tree, nodes);
  const auto mapped = affinity_map(tree, nodes, sched);
  CommCache cache(1.0);
  CostWorkspace ws;
  const auto cost_of = [&](const std::vector<NodeId>& order) {
    return profiled_candidate_cost(model, cache, state, order, true,
                                   Pattern::kRecursiveHalvingVD, ws);
  };
  EXPECT_LE(cost_of(mapped), cost_of(major) + 1e-9);
}

TEST(AffinityMapTest, SingleLeafIsTrivial) {
  const Tree tree = make_two_level_tree(2, 8);
  const std::vector<NodeId> nodes{3, 1, 2, 0};
  const auto sched = make_schedule(Pattern::kRecursiveDoubling, 4, 1.0);
  const auto mapped = affinity_map(tree, nodes, sched);
  EXPECT_EQ(mapped, (std::vector<NodeId>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace commsched
