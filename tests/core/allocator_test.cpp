#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/adaptive_allocator.hpp"
#include "core/allocator_common.hpp"
#include "core/allocator_factory.hpp"
#include "core/balanced_allocator.hpp"
#include "core/cost_model.hpp"
#include "core/default_allocator.hpp"
#include "core/greedy_allocator.hpp"
#include "topology/builders.hpp"
#include "util/assert.hpp"

namespace commsched {
namespace {

AllocationRequest comm_request(int nodes,
                               Pattern pattern = Pattern::kRecursiveDoubling) {
  AllocationRequest r;
  r.job = 999;
  r.num_nodes = nodes;
  r.comm_intensive = true;
  r.pattern = pattern;
  return r;
}

AllocationRequest compute_request(int nodes) {
  AllocationRequest r = comm_request(nodes);
  r.comm_intensive = false;
  return r;
}

// Count of allocated nodes per leaf switch, keyed by leaf id.
std::map<SwitchId, int> per_leaf(const Tree& tree,
                                 const std::vector<NodeId>& nodes) {
  std::map<SwitchId, int> counts;
  for (const NodeId n : nodes) ++counts[tree.leaf_of(n)];
  return counts;
}

// ---- find_lowest_level_switch --------------------------------------------

TEST(LowestLevelSwitchTest, PrefersLeafWhenItFits) {
  // The paper's §3.1 example: with n0, n1 allocated, a 4-node job fits the
  // lowest-level switch s1; a 6-node job needs s2.
  const Tree tree = make_figure2_tree();
  ClusterState state(tree);
  state.allocate(1, false, std::vector<NodeId>{0, 1});
  const SwitchId s1 = *tree.switch_by_name("s1");
  const SwitchId s2 = *tree.switch_by_name("s2");
  EXPECT_EQ(find_lowest_level_switch(state, 4), s1);
  EXPECT_EQ(find_lowest_level_switch(state, 6), s2);
}

TEST(LowestLevelSwitchTest, BestFitAmongLeaves) {
  // Two leaves: 2 free and 3 free; a 2-node job should pick the 2-free one.
  const Tree tree = make_figure2_tree();
  ClusterState state(tree);
  state.allocate(1, false, std::vector<NodeId>{0, 1});  // s0 has 2 free
  state.allocate(2, false, std::vector<NodeId>{4});     // s1 has 3 free
  const SwitchId s0 = *tree.switch_by_name("s0");
  EXPECT_EQ(find_lowest_level_switch(state, 2), s0);
}

TEST(LowestLevelSwitchTest, ReturnsInvalidWhenMachineCannotFit) {
  const Tree tree = make_figure2_tree();
  ClusterState state(tree);
  state.allocate(1, false, std::vector<NodeId>{0});
  EXPECT_EQ(find_lowest_level_switch(state, 8), kInvalidSwitch);
  EXPECT_NE(find_lowest_level_switch(state, 7), kInvalidSwitch);
}

TEST(CommunicationRatioTest, MatchesEquation1) {
  const Tree tree = make_figure2_tree();
  ClusterState state(tree);
  const SwitchId s0 = *tree.switch_by_name("s0");
  EXPECT_DOUBLE_EQ(communication_ratio(state, s0), 0.0);  // idle leaf
  state.allocate(1, true, std::vector<NodeId>{0});
  state.allocate(2, false, std::vector<NodeId>{1});
  // L_comm/L_busy + L_busy/L_nodes = 1/2 + 2/4 = 1.0.
  EXPECT_DOUBLE_EQ(communication_ratio(state, s0), 1.0);
}

// ---- default (stock SLURM) ------------------------------------------------

TEST(DefaultAllocatorTest, SingleLeafRequestStaysOnLeaf) {
  const Tree tree = make_figure2_tree();
  const ClusterState state(tree);
  const DefaultAllocator alloc;
  const auto nodes = alloc.select(state, comm_request(3));
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(per_leaf(tree, *nodes).size(), 1u);
}

TEST(DefaultAllocatorTest, BestFitFillsFragmentedLeafFirst) {
  // s0 has 2 free, s1 has 4: a 4-node job spanning both should drain s0
  // first (best-fit reduces fragmentation), then take 2 from s1... but a
  // 4-node job fits s1 alone, so force a 5-node job.
  const Tree tree = make_figure2_tree();
  ClusterState state(tree);
  state.allocate(1, false, std::vector<NodeId>{0, 1});
  const DefaultAllocator alloc;
  const auto nodes = alloc.select(state, comm_request(5));
  ASSERT_TRUE(nodes.has_value());
  const auto counts = per_leaf(tree, *nodes);
  const SwitchId s0 = *tree.switch_by_name("s0");
  const SwitchId s1 = *tree.switch_by_name("s1");
  EXPECT_EQ(counts.at(s0), 2);  // emptier leaf drained first
  EXPECT_EQ(counts.at(s1), 3);
}

TEST(DefaultAllocatorTest, ReturnsNulloptWhenFull) {
  const Tree tree = make_figure2_tree();
  ClusterState state(tree);
  state.allocate(1, false, std::vector<NodeId>{0, 1, 2, 3, 4, 5});
  const DefaultAllocator alloc;
  EXPECT_FALSE(alloc.select(state, comm_request(3)).has_value());
  EXPECT_TRUE(alloc.select(state, comm_request(2)).has_value());
}

TEST(DefaultAllocatorTest, IgnoresJobType) {
  const Tree tree = make_figure2_tree();
  ClusterState state(tree);
  state.allocate(1, true, std::vector<NodeId>{0});
  const DefaultAllocator alloc;
  const auto a = alloc.select(state, comm_request(5));
  const auto b = alloc.select(state, compute_request(5));
  EXPECT_EQ(*a, *b);
}

// ---- greedy (Algorithm 1) -------------------------------------------------

TEST(GreedyAllocatorTest, CommJobAvoidsContendedLeaf) {
  // Two leaves with equal free counts; one hosts a comm-intensive job.
  // Greedy must start on the quiet leaf for a comm job.
  const Tree tree = make_two_level_tree(2, 8);
  ClusterState state(tree);
  state.allocate(1, true, std::vector<NodeId>{0, 1});   // leaf 0: comm
  state.allocate(2, false, std::vector<NodeId>{8, 9});  // leaf 1: compute
  const GreedyAllocator alloc;
  // 6 free per leaf; a 10-node job must span both, quiet leaf first.
  const auto nodes = alloc.select(state, comm_request(10));
  ASSERT_TRUE(nodes.has_value());
  const SwitchId leaf1 = tree.leaf_of(8);
  // First six allocated nodes come from the quiet leaf 1.
  for (int i = 0; i < 6; ++i)
    EXPECT_EQ(tree.leaf_of((*nodes)[static_cast<std::size_t>(i)]), leaf1);
}

TEST(GreedyAllocatorTest, ComputeJobPrefersContendedLeaf) {
  const Tree tree = make_two_level_tree(2, 8);
  ClusterState state(tree);
  state.allocate(1, true, std::vector<NodeId>{0, 1});
  const GreedyAllocator alloc;
  const auto nodes = alloc.select(state, compute_request(4));
  ASSERT_TRUE(nodes.has_value());
  // Compute jobs take the *highest* communication-ratio leaf (leaf 0),
  // leaving the quiet leaf for communicating jobs.
  const SwitchId leaf0 = tree.leaf_of(0);
  for (const NodeId n : *nodes) EXPECT_EQ(tree.leaf_of(n), leaf0);
}

TEST(GreedyAllocatorTest, WholeRequestOnSingleLeafWhenPossible) {
  const Tree tree = make_two_level_tree(2, 8);
  ClusterState state(tree);
  state.allocate(1, true, std::vector<NodeId>{0});
  const GreedyAllocator alloc;
  const auto nodes = alloc.select(state, comm_request(4));
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(per_leaf(tree, *nodes).size(), 1u);
}

// ---- balanced (Algorithm 2) -----------------------------------------------

TEST(BalancedAllocatorTest, ReproducesPaperTable2) {
  // Table 2: free = {160,150,100,80,70,50,40} -> alloc =
  // {128,128,64,64,64,32,32} for a 512-node job.
  const int free_counts[] = {160, 150, 100, 80, 70, 50, 40};
  const int expected[] = {128, 128, 64, 64, 64, 32, 32};
  TreeBuilder b;
  std::vector<SwitchId> leaves;
  int node = 0;
  for (int i = 0; i < 7; ++i) {
    std::vector<std::string> names;
    for (int k = 0; k < 200; ++k) names.push_back("n" + std::to_string(node++));
    leaves.push_back(b.add_leaf("L" + std::to_string(i + 1), names));
  }
  b.add_switch("root", leaves);
  const Tree tree = b.build();
  ClusterState state(tree);
  // Occupy nodes so leaf i has exactly free_counts[i] free.
  JobId job = 1;
  for (int i = 0; i < 7; ++i) {
    const int busy = 200 - free_counts[i];
    std::vector<NodeId> occupied;
    for (const NodeId n : tree.nodes_of_leaf(leaves[static_cast<std::size_t>(i)])) {
      if (static_cast<int>(occupied.size()) == busy) break;
      occupied.push_back(n);
    }
    state.allocate(job++, false, occupied);
  }

  const BalancedAllocator alloc;
  const auto nodes = alloc.select(state, comm_request(512));
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(nodes->size(), 512u);
  const auto counts = per_leaf(tree, *nodes);
  for (int i = 0; i < 7; ++i) {
    const SwitchId leaf = leaves[static_cast<std::size_t>(i)];
    const auto it = counts.find(leaf);
    const int got = it == counts.end() ? 0 : it->second;
    EXPECT_EQ(got, expected[i]) << "leaf L" << (i + 1);
  }
}

TEST(BalancedAllocatorTest, SplitsPowerOfTwoAcrossEqualLeaves) {
  // 8 nodes over two 6-free leaves: balanced gives 4 + 4 (the paper's §4.2
  // example), never 6 + 2.
  const Tree tree = make_two_level_tree(2, 6);
  const ClusterState state(tree);
  const BalancedAllocator alloc;
  const auto nodes = alloc.select(state, comm_request(8));
  ASSERT_TRUE(nodes.has_value());
  const auto counts = per_leaf(tree, *nodes);
  ASSERT_EQ(counts.size(), 2u);
  for (const auto& [leaf, count] : counts) EXPECT_EQ(count, 4);
}

TEST(BalancedAllocatorTest, TopUpPassFillsShortfall) {
  // Free: 5 and 5; request 8 (comm). Power-of-two pass: S=8 -> 4 on each
  // leaf (8 allocated). Now free 3 and 3; request 8 again -> pow2 pass
  // gives 2+2... verify a request that cannot be met in powers of two alone
  // still completes: free {3, 3}, request 6 -> 2+2 then top-up 1+1.
  const Tree tree = make_two_level_tree(2, 3);
  const ClusterState state(tree);
  const BalancedAllocator alloc;
  const auto nodes = alloc.select(state, comm_request(6));
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(nodes->size(), 6u);
}

TEST(BalancedAllocatorTest, ComputeJobFillsSmallestLeavesFirst) {
  // leaf0: 5 free, leaf1: 8 free; a 9-node request cannot fit one leaf, so
  // the compute branch (lines 30-35) applies: ascending free order drains
  // the fragmented leaf0 first.
  const Tree tree = make_two_level_tree(2, 8);
  ClusterState state(tree);
  state.allocate(1, false, std::vector<NodeId>{0, 1, 2});  // leaf0: 5 free
  const BalancedAllocator alloc;
  const auto nodes = alloc.select(state, compute_request(9));
  ASSERT_TRUE(nodes.has_value());
  const auto counts = per_leaf(tree, *nodes);
  const SwitchId leaf0 = tree.leaf_of(0);
  const SwitchId leaf1 = tree.leaf_of(8);
  EXPECT_EQ(counts.at(leaf0), 5);  // drained the fragmented leaf first
  EXPECT_EQ(counts.at(leaf1), 4);
}

TEST(BalancedAllocatorTest, LeafFittingRequestStaysOnLeaf) {
  const Tree tree = make_two_level_tree(4, 16);
  const ClusterState state(tree);
  const BalancedAllocator alloc;
  const auto nodes = alloc.select(state, comm_request(16));
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(per_leaf(tree, *nodes).size(), 1u);
}

// ---- adaptive (§4.3) --------------------------------------------------------

TEST(AdaptiveAllocatorTest, PicksCheaperCandidateForCommJobs) {
  const Tree tree = make_two_level_tree(4, 8);
  ClusterState state(tree);
  // Leaf 0 busy with comm work; leaves 1-3 progressively emptier.
  state.allocate(1, true, std::vector<NodeId>{0, 1, 2, 3});
  const AdaptiveAllocator adaptive;
  const GreedyAllocator greedy;
  const BalancedAllocator balanced;
  const auto request = comm_request(8, Pattern::kRecursiveHalvingVD);
  const auto pick = adaptive.select(state, request);
  ASSERT_TRUE(pick.has_value());

  const CostModel model(tree);
  CommCache cache(1 << 20);
  CostWorkspace ws;
  const auto cost_of = [&](const std::vector<NodeId>& nodes) {
    return profiled_candidate_cost(model, cache, state, nodes, true,
                                   Pattern::kRecursiveHalvingVD, ws);
  };
  const double adaptive_cost = cost_of(*pick);
  for (const Allocator* other :
       {static_cast<const Allocator*>(&greedy),
        static_cast<const Allocator*>(&balanced)}) {
    const auto alt = other->select(state, request);
    ASSERT_TRUE(alt.has_value());
    EXPECT_LE(adaptive_cost, cost_of(*alt) + 1e-9);
  }
  ASSERT_NE(adaptive.last_priced(), nullptr);
  EXPECT_DOUBLE_EQ(model.selected(adaptive.last_priced()->costs),
                   adaptive_cost);
}

TEST(AdaptiveAllocatorTest, PicksPricierCandidateForComputeJobs) {
  const Tree tree = make_two_level_tree(4, 8);
  ClusterState state(tree);
  state.allocate(1, true, std::vector<NodeId>{0, 1, 2, 3});
  const AdaptiveAllocator adaptive;
  const GreedyAllocator greedy;
  const BalancedAllocator balanced;
  const auto request = compute_request(8);
  const auto pick = adaptive.select(state, request);
  ASSERT_TRUE(pick.has_value());
  const CostModel model(tree);
  CommCache cache(1 << 20);
  CostWorkspace ws;
  const auto cost_of = [&](const std::vector<NodeId>& nodes) {
    return profiled_candidate_cost(model, cache, state, nodes, false,
                                   Pattern::kRecursiveDoubling, ws);
  };
  const double picked_cost = cost_of(*pick);
  const auto g = greedy.select(state, request);
  const auto b = balanced.select(state, request);
  const double gc = cost_of(*g);
  const double bc = cost_of(*b);
  EXPECT_DOUBLE_EQ(picked_cost, std::max(gc, bc));
}

// An idle 4 x 8 tree: an 8-node request fits one leaf, where greedy and
// balanced both take that leaf's first eight nodes.
struct IdenticalPicks {
  Tree tree = make_two_level_tree(4, 8);
  ClusterState state{tree};
  std::shared_ptr<CommCache> cache = std::make_shared<CommCache>(1 << 20);
};

TEST(AdaptiveAllocatorTest, IdenticalPicksArePricedOnce) {
  IdenticalPicks f;
  const auto request = comm_request(8, Pattern::kRecursiveHalvingVD);
  ASSERT_EQ(GreedyAllocator().select(f.state, request),
            BalancedAllocator().select(f.state, request));
  const AdaptiveAllocator adaptive({}, f.cache);
  ASSERT_TRUE(adaptive.select(f.state, request).has_value());
  EXPECT_NE(adaptive.last_priced(), nullptr);
  // One candidate priced: one profile lookup in the shared cache.
  EXPECT_EQ(f.cache->stats().profile_hits + f.cache->stats().profile_misses,
            1u);
}

TEST(AdaptiveAllocatorTest, IdenticalPicksGoToBalancedForBothJobClasses) {
  IdenticalPicks f;
  for (const bool comm : {true, false}) {
    const AllocationRequest request =
        comm ? comm_request(8) : compute_request(8);
    ASSERT_EQ(GreedyAllocator().select(f.state, request),
              BalancedAllocator().select(f.state, request));
    const AdaptiveAllocator adaptive({}, f.cache);
    const auto pick = adaptive.select(f.state, request);
    ASSERT_TRUE(pick.has_value());
    EXPECT_EQ(*pick, *BalancedAllocator().select(f.state, request));
  }
}

TEST(AdaptiveAllocatorTest, NulloptWhenNothingFits) {
  const Tree tree = make_figure2_tree();
  ClusterState state(tree);
  state.allocate(1, false, std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6});
  const AdaptiveAllocator adaptive;
  EXPECT_FALSE(adaptive.select(state, comm_request(2)).has_value());
}

// ---- the handed-on price ----------------------------------------------------

// Allocator::last_priced() over every registered policy: after each
// successful select it is null, or exactly a fresh candidate_costs of the
// returned nodes and the cache's profile for them. Adaptive hands a price on
// whenever both of its candidates exist; sa for every communication request,
// io_aware for every one with comm_fraction > 0, and neither for a compute
// one.
TEST(AllocatorContractTest, LastPricedIsNullOrAFreshWalk) {
  // 8 x 4, peppered so that a 12-node job spans leaves, greedy and balanced
  // disagree and sa's anneal finds a cheaper placement than its seed.
  const Tree tree = make_two_level_tree(8, 4);
  const ClusterState idle(tree);
  ClusterState busy(tree);
  busy.allocate(1, true, std::vector<NodeId>{0, 1, 2});
  busy.allocate(2, false, std::vector<NodeId>{4, 5, 6});
  busy.allocate(3, true, std::vector<NodeId>{8, 9});
  busy.allocate(4, true, std::vector<NodeId>{13, 14});
  busy.allocate(5, false, std::vector<NodeId>{17, 18});
  busy.allocate(6, true, std::vector<NodeId>{21, 22});
  int adaptive_priced = 0;
  int sa_moved = 0;  // sa picks that differ from their adaptive seed
  const ClusterState* const states[] = {&idle, &busy};
  for (const ClusterState* state : states) {
    for (const bool comm : {true, false}) {
      for (const bool hop_bytes : {false, true}) {
        const CostOptions options{.hop_bytes = hop_bytes};
        const AllocationRequest request =
            comm ? comm_request(12, Pattern::kPairwiseAlltoall)
                 : compute_request(12);
        const bool both_candidates =
            GreedyAllocator().select(*state, request).has_value() &&
            BalancedAllocator().select(*state, request).has_value();
        for (const AllocatorKind kind : kAllRegisteredAllocatorKinds) {
          SCOPED_TRACE(std::string(allocator_kind_name(kind)) +
                       (state == &idle ? " idle" : " busy") +
                       (comm ? " comm" : " compute") +
                       (hop_bytes ? " hop-bytes" : " hops"));
          const auto cache = std::make_shared<CommCache>(1 << 20);
          const auto allocator = make_allocator(kind, options, cache);
          std::vector<NodeId> nodes;
          if (!allocator->select_into(*state, request, nodes)) {
            // Only exclusive, which takes whole leaves, may refuse.
            EXPECT_EQ(kind, AllocatorKind::kExclusive);
            continue;
          }
          const PricedPlacement* priced = allocator->last_priced();
          if (kind == AllocatorKind::kAdaptive) {
            EXPECT_EQ(priced != nullptr, both_candidates);
            if (priced != nullptr) ++adaptive_priced;
          }
          if (kind == AllocatorKind::kIoAware) {
            ASSERT_GT(request.comm_fraction, 0.0);
            EXPECT_EQ(priced != nullptr, comm);
          }
          if (kind == AllocatorKind::kSa) {
            EXPECT_EQ(priced != nullptr, comm);
            if (nodes != AdaptiveAllocator(options).select(*state, request))
              ++sa_moved;
          }
          if (priced == nullptr) continue;
          const LeafCommProfile& profile =
              cache->profile(request.pattern, 1, make_shape_key(tree, nodes));
          EXPECT_EQ(priced->profile, &profile);
          const CostModel model(tree, options);
          CostWorkspace ws;
          EXPECT_EQ(priced->costs,
                    model.candidate_costs(*state, nodes, comm, profile, ws));
        }
      }
    }
  }
  EXPECT_EQ(adaptive_priced, 8);
  EXPECT_GT(sa_moved, 0);
}

// ---- factory ---------------------------------------------------------------

TEST(AllocatorFactoryTest, NamesRoundTrip) {
  for (const AllocatorKind kind : kAllAllocatorKinds) {
    const auto alloc = make_allocator(kind);
    EXPECT_STREQ(alloc->name(), allocator_kind_name(kind));
    EXPECT_EQ(allocator_kind_from_string(allocator_kind_name(kind)), kind);
  }
  EXPECT_FALSE(allocator_kind_from_string("bogus").has_value());
}

TEST(AllocatorFactoryTest, JobawareEnvSwitch) {
  // Mirrors §5.2: unset -> stock allocator; set -> the proposed algorithm.
  unsetenv("JOBAWARE");
  EXPECT_EQ(allocator_kind_from_env(), AllocatorKind::kDefault);
  setenv("JOBAWARE", "balanced", 1);
  EXPECT_EQ(allocator_kind_from_env(), AllocatorKind::kBalanced);
  setenv("JOBAWARE", "1", 1);
  EXPECT_EQ(allocator_kind_from_env(), AllocatorKind::kAdaptive);
  setenv("JOBAWARE", "nonsense", 1);
  EXPECT_THROW(allocator_kind_from_env(), InvariantError);
  unsetenv("JOBAWARE");
}

}  // namespace
}  // namespace commsched
