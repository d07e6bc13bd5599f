#include "mapping/reorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "collectives/comm_cache.hpp"
#include "core/allocator_common.hpp"
#include "topology/builders.hpp"

namespace commsched {
namespace {

TEST(SwitchMajorOrderTest, GroupsNodesByLeaf) {
  const Tree tree = make_figure2_tree();
  // Interleaved leaves: n0(s0), n4(s1), n1(s0), n5(s1).
  const std::vector<NodeId> nodes{0, 4, 1, 5};
  const auto ordered = switch_major_order(tree, nodes);
  // s0 appears first -> its nodes lead, ascending ids within each leaf.
  EXPECT_EQ(ordered, (std::vector<NodeId>{0, 1, 4, 5}));
}

TEST(SwitchMajorOrderTest, PreservesLeafFirstAppearance) {
  const Tree tree = make_figure2_tree();
  const std::vector<NodeId> nodes{5, 0, 4};
  const auto ordered = switch_major_order(tree, nodes);
  // s1 seen first -> s1 block first.
  EXPECT_EQ(ordered, (std::vector<NodeId>{4, 5, 0}));
}

TEST(SwitchMajorOrderTest, IsAPermutation) {
  const Tree tree = make_three_level_tree(2, 2, 4);
  const std::vector<NodeId> nodes{13, 2, 7, 0, 9, 14};
  auto ordered = switch_major_order(tree, nodes);
  EXPECT_EQ(ordered.size(), nodes.size());
  std::set<NodeId> a(nodes.begin(), nodes.end());
  std::set<NodeId> b(ordered.begin(), ordered.end());
  EXPECT_EQ(a, b);
}

class MappingFixture : public ::testing::Test {
 protected:
  MappingFixture()
      : tree_(make_two_level_tree(2, 8)), state_(tree_), model_(tree_) {}

  // Eq. 6 of `pattern` (base message size 1) on the rank order `nodes`.
  double cost(const CostModel& model, const std::vector<NodeId>& nodes,
              Pattern pattern) {
    return profiled_candidate_cost(model, cache_, state_, nodes, true,
                                   pattern, workspace_);
  }

  Tree tree_;
  ClusterState state_;
  CostModel model_;
  CommCache cache_{1.0};
  CostWorkspace workspace_;
};

TEST_F(MappingFixture, ImproveMappingNeverWorseThanSwitchMajor) {
  const Pattern pattern = Pattern::kRecursiveHalvingVD;
  // A deliberately bad interleaving across the two leaves.
  const std::vector<NodeId> nodes{0, 8, 1, 9, 2, 10, 3, 11};
  const auto base = switch_major_order(tree_, nodes);
  const auto improved =
      improve_mapping(state_, model_, pattern, 1.0, nodes, true);
  EXPECT_LE(cost(model_, improved, pattern),
            cost(model_, base, pattern) + 1e-9);
}

TEST_F(MappingFixture, ImproveMappingBeatsInterleavedOrder) {
  // Under the pure Eq. 6 (hops-only) cost every 4+4 split of an RHVD job
  // prices the same — exactly one step must cross switches. The hop-bytes
  // variant breaks the tie: crossing on the *light* first step is cheaper
  // than crossing on the heavy last step, so the interleaved order (which
  // crosses at the end) must improve.
  const CostModel hop_bytes_model(tree_, CostOptions{.hop_bytes = true});
  const Pattern pattern = Pattern::kRecursiveHalvingVD;
  const std::vector<NodeId> interleaved{0, 8, 1, 9, 2, 10, 3, 11};
  const double before = cost(hop_bytes_model, interleaved, pattern);
  const auto improved = improve_mapping(state_, hop_bytes_model, pattern,
                                        1.0, interleaved, true);
  const double after = cost(hop_bytes_model, improved, pattern);
  EXPECT_LT(after, before);
}

TEST_F(MappingFixture, ImproveMappingIsAPermutation) {
  const std::vector<NodeId> nodes{0, 8, 1, 9, 2, 10, 3, 11};
  const auto improved = improve_mapping(
      state_, model_, Pattern::kRecursiveDoubling, 1.0, nodes, true);
  std::set<NodeId> a(nodes.begin(), nodes.end());
  std::set<NodeId> b(improved.begin(), improved.end());
  EXPECT_EQ(a, b);
}

TEST_F(MappingFixture, LargeJobsSkipTheSwapScan) {
  // With max_swap_nodes = 4, an 8-rank job falls back to switch-major.
  const std::vector<NodeId> nodes{0, 8, 1, 9, 2, 10, 3, 11};
  MappingOptions opts;
  opts.max_swap_nodes = 4;
  const auto mapped = improve_mapping(
      state_, model_, Pattern::kRecursiveDoubling, 1.0, nodes, true, opts);
  EXPECT_EQ(mapped, switch_major_order(tree_, nodes));
}

TEST_F(MappingFixture, SingleLeafAllocationIsAlreadyOptimal) {
  const std::vector<NodeId> nodes{3, 1, 0, 2};  // all on leaf 0
  const auto improved = improve_mapping(
      state_, model_, Pattern::kRecursiveDoubling, 1.0, nodes, true);
  // All same-leaf orderings cost the same; the result is the sorted block.
  EXPECT_EQ(improved, (std::vector<NodeId>{0, 1, 2, 3}));
}

}  // namespace
}  // namespace commsched
