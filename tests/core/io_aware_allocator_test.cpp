#include "core/io_aware_allocator.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "collectives/comm_cache.hpp"
#include "core/adaptive_allocator.hpp"
#include "core/allocator_common.hpp"
#include "core/allocator_factory.hpp"
#include "core/cost_model.hpp"
#include "topology/builders.hpp"

namespace commsched {
namespace {

AllocationRequest io_request(int nodes, double io_fraction,
                             double comm_fraction = 0.0) {
  AllocationRequest r;
  r.job = 777;
  r.num_nodes = nodes;
  r.comm_intensive = comm_fraction > 0.0;
  r.io_intensive = io_fraction > 0.0;
  r.comm_fraction = comm_fraction;
  r.io_fraction = io_fraction;
  r.pattern = Pattern::kRecursiveHalvingVD;
  return r;
}

std::map<SwitchId, int> per_leaf(const Tree& tree,
                                 const std::vector<NodeId>& nodes) {
  std::map<SwitchId, int> counts;
  for (const NodeId n : nodes) ++counts[tree.leaf_of(n)];
  return counts;
}

TEST(SpreadCandidateTest, EvenBlocksAcrossLeaves) {
  const Tree tree = make_two_level_tree(4, 8);
  const ClusterState state(tree);
  const auto nodes = IoAwareAllocator::spread_candidate(state, 8);
  ASSERT_TRUE(nodes.has_value());
  const auto counts = per_leaf(tree, *nodes);
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [leaf, count] : counts) EXPECT_EQ(count, 2);
  // Blocks are contiguous in rank space: ranks 0-1 share a leaf, etc.
  for (int r = 0; r < 8; r += 2)
    EXPECT_EQ(tree.leaf_of((*nodes)[static_cast<std::size_t>(r)]),
              tree.leaf_of((*nodes)[static_cast<std::size_t>(r + 1)]));
}

TEST(SpreadCandidateTest, CapacityDeficitWrapsToOtherLeaves) {
  const Tree tree = make_two_level_tree(2, 8);
  ClusterState state(tree);
  state.allocate(1, false, std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6});
  // leaf0: 1 free, leaf1: 8 free; request 6 -> 1 + 5 regardless of shares.
  const auto nodes = IoAwareAllocator::spread_candidate(state, 6);
  ASSERT_TRUE(nodes.has_value());
  const auto counts = per_leaf(tree, *nodes);
  EXPECT_EQ(counts.at(tree.leaf_of(7)), 1);
  EXPECT_EQ(counts.at(tree.leaf_of(8)), 5);
}

TEST(SpreadCandidateTest, AvoidsIoLoadedLeaves) {
  const Tree tree = make_two_level_tree(2, 8);
  ClusterState state(tree);
  state.allocate(1, false, std::vector<NodeId>{0, 1, 2}, /*io=*/true);
  const auto nodes = IoAwareAllocator::spread_candidate(state, 4);
  ASSERT_TRUE(nodes.has_value());
  // Leaf 1 (no I/O) is preferred in the round-robin ordering: it gets the
  // first pick of every round and ends with at least half the nodes.
  const auto counts = per_leaf(tree, *nodes);
  const SwitchId leaf1 = tree.leaf_of(8);
  EXPECT_GE(counts.at(leaf1), 2);
}

TEST(SpreadCandidateTest, NulloptWhenShortOnNodes) {
  const Tree tree = make_figure2_tree();
  ClusterState state(tree);
  state.allocate(1, false, std::vector<NodeId>{0, 1, 2, 3, 4, 5});
  EXPECT_FALSE(IoAwareAllocator::spread_candidate(state, 3).has_value());
  EXPECT_TRUE(IoAwareAllocator::spread_candidate(state, 2).has_value());
}

TEST(IoAwareAllocatorTest, PureIoJobGetsSpread) {
  const Tree tree = make_two_level_tree(4, 8);
  const ClusterState state(tree);
  const IoAwareAllocator alloc;
  const auto nodes = alloc.select(state, io_request(8, /*io=*/0.8));
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(*nodes, *IoAwareAllocator::spread_candidate(state, 8));
}

TEST(IoAwareAllocatorTest, PureCommJobMatchesAdaptiveChoiceCost) {
  const Tree tree = make_two_level_tree(4, 8);
  ClusterState state(tree);
  state.allocate(1, true, std::vector<NodeId>{0, 1, 2, 3});
  const IoAwareAllocator io_alloc;
  const AdaptiveAllocator adaptive;
  AllocationRequest req = io_request(8, /*io=*/0.0, /*comm=*/0.8);
  const auto a = io_alloc.select(state, req);
  const auto b = adaptive.select(state, req);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  // Same candidate pool minus the spread (which a comm job won't prefer):
  // both must land on a placement with the same comm cost.
  const CostModel model(tree, CostOptions{.hop_bytes = true});
  CommCache cache(req.msize);
  CostWorkspace ws;
  EXPECT_DOUBLE_EQ(
      profiled_candidate_cost(model, cache, state, *a, true, req.pattern, ws),
      profiled_candidate_cost(model, cache, state, *b, true, req.pattern, ws));
}

TEST(IoAwareAllocatorTest, MixedJobTradesOffBothTerms) {
  // Cluster with one I/O-loaded leaf. A mixed comm+I/O job must avoid
  // stacking on that leaf even though it is otherwise attractive.
  const Tree tree = make_two_level_tree(2, 16);
  ClusterState state(tree);
  state.allocate(1, false, std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6, 7},
                 /*io=*/true);
  const IoAwareAllocator alloc;
  const auto nodes = alloc.select(state, io_request(8, 0.5, 0.4));
  ASSERT_TRUE(nodes.has_value());
  const auto counts = per_leaf(tree, *nodes);
  const SwitchId io_leaf = tree.leaf_of(0);
  const int on_io_leaf = counts.contains(io_leaf) ? counts.at(io_leaf) : 0;
  EXPECT_LE(on_io_leaf, 4);  // at most half lands behind the loaded uplink
}

TEST(IoAwareAllocatorTest, SelectionInvariants) {
  const Tree tree = make_two_level_tree(3, 8);
  ClusterState state(tree);
  state.allocate(1, true, std::vector<NodeId>{0, 1, 8, 9}, true);
  const IoAwareAllocator alloc;
  for (const double io : {0.0, 0.3, 0.9}) {
    const auto nodes = alloc.select(state, io_request(10, io, 0.5 * (1 - io)));
    ASSERT_TRUE(nodes.has_value());
    EXPECT_EQ(nodes->size(), 10u);
    std::set<NodeId> unique(nodes->begin(), nodes->end());
    EXPECT_EQ(unique.size(), 10u);
    for (const NodeId n : *nodes) EXPECT_TRUE(state.is_free(n));
  }
  EXPECT_EQ(state.total_free(), 20);
  state.validate();
}

TEST(IoAwareAllocatorTest, FactoryIntegration) {
  const auto alloc = make_allocator(AllocatorKind::kIoAware);
  EXPECT_STREQ(alloc->name(), "io_aware");
  EXPECT_EQ(allocator_kind_from_string("io_aware"), AllocatorKind::kIoAware);
  for (const AllocatorKind kind : kAllAllocatorKinds)
    EXPECT_NE(kind, AllocatorKind::kIoAware);
}

}  // namespace
}  // namespace commsched
