// Simulated-annealing allocator (DESIGN.md "Delta-cost evaluation & search
// allocators"): determinism under a fixed seed, validity of the returned
// node set, the never-worse-than-its-seeds guarantee, the budget=0
// degenerate case, the budget every proposal consumes, the in-anneal
// delta-vs-full verification, and factory registration (name list kept in
// sync).
#include "core/sa_allocator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/adaptive_allocator.hpp"
#include "core/allocator_common.hpp"
#include "core/allocator_factory.hpp"
#include "core/balanced_allocator.hpp"
#include "core/greedy_allocator.hpp"
#include "topology/builders.hpp"
#include "util/assert.hpp"

namespace commsched {
namespace {

AllocationRequest comm_request(int nodes,
                               Pattern pattern = Pattern::kPairwiseAlltoall) {
  AllocationRequest r;
  r.job = 424242;
  r.num_nodes = nodes;
  r.comm_intensive = true;
  r.pattern = pattern;
  return r;
}

// A fragmented 8x4 machine: background jobs pepper the leaves so the greedy
// seed lands scattered and the anneal has room to improve.
class SaAllocatorFixture : public ::testing::Test {
 protected:
  SaAllocatorFixture() : tree_(make_two_level_tree(8, 4)), state_(tree_) {
    state_.allocate(1, /*comm=*/true, std::vector<NodeId>{0, 1, 2});
    state_.allocate(2, /*comm=*/false, std::vector<NodeId>{4, 5, 6});
    state_.allocate(3, /*comm=*/true, std::vector<NodeId>{8, 9});
    state_.allocate(4, /*comm=*/true, std::vector<NodeId>{13, 14});
    state_.allocate(5, /*comm=*/false, std::vector<NodeId>{17, 18});
    state_.allocate(6, /*comm=*/true, std::vector<NodeId>{21, 22});
  }

  // Full Eq. 6 price of `nodes` through an independent cache/workspace.
  double price(std::span<const NodeId> nodes, const AllocationRequest& r) {
    const CostModel model(tree_, CostOptions{.hop_bytes = true});
    CommCache cache(double{1 << 20});
    CostWorkspace ws;
    return profiled_candidate_cost(model, cache, state_, nodes, true,
                                   r.pattern, ws);
  }

  Tree tree_;
  ClusterState state_;
};

TEST_F(SaAllocatorFixture, ReturnsValidFreeDistinctNodes) {
  const SaAllocator sa(CostOptions{.hop_bytes = true});
  std::vector<NodeId> nodes;
  ASSERT_TRUE(sa.select_into(state_, comm_request(8), nodes));
  ASSERT_EQ(nodes.size(), 8u);
  std::set<NodeId> distinct(nodes.begin(), nodes.end());
  EXPECT_EQ(distinct.size(), 8u);
  for (const NodeId n : nodes) EXPECT_TRUE(state_.is_free(n)) << n;
}

TEST_F(SaAllocatorFixture, DeterministicAcrossCallsAndInstances) {
  const SaAllocator a(CostOptions{.hop_bytes = true});
  const SaAllocator b(CostOptions{.hop_bytes = true});
  std::vector<NodeId> first, again, other;
  ASSERT_TRUE(a.select_into(state_, comm_request(8), first));
  ASSERT_TRUE(a.select_into(state_, comm_request(8), again));
  ASSERT_TRUE(b.select_into(state_, comm_request(8), other));
  EXPECT_EQ(first, again) << "per-job stream must be stateless across calls";
  EXPECT_EQ(first, other) << "placement must depend only on (options, state, "
                             "request)";

  // A different base seed gives a different stream (and usually placement);
  // determinism must hold per seed either way.
  SaOptions reseeded;
  reseeded.seed = 1;
  const SaAllocator c(CostOptions{.hop_bytes = true}, reseeded);
  std::vector<NodeId> c1, c2;
  ASSERT_TRUE(c.select_into(state_, comm_request(8), c1));
  ASSERT_TRUE(c.select_into(state_, comm_request(8), c2));
  EXPECT_EQ(c1, c2);
}

TEST_F(SaAllocatorFixture, NeverWorseThanEitherSeedPolicy) {
  const GreedyAllocator greedy;
  const BalancedAllocator balanced;
  const SaAllocator sa(CostOptions{.hop_bytes = true});
  for (const int n : {4, 6, 8, 12}) {
    for (const Pattern p :
         {Pattern::kPairwiseAlltoall, Pattern::kRecursiveDoubling,
          Pattern::kRing}) {
      const AllocationRequest r = comm_request(n, p);
      std::vector<NodeId> sa_pick, greedy_pick, balanced_pick;
      ASSERT_TRUE(sa.select_into(state_, r, sa_pick));
      ASSERT_TRUE(greedy.select_into(state_, r, greedy_pick));
      ASSERT_TRUE(balanced.select_into(state_, r, balanced_pick));
      const double sa_cost = price(sa_pick, r);
      EXPECT_LE(sa_cost, price(greedy_pick, r)) << "n=" << n;
      EXPECT_LE(sa_cost, price(balanced_pick, r)) << "n=" << n;
    }
  }
}

TEST_F(SaAllocatorFixture, ZeroBudgetReturnsTheCheaperSeed) {
  SaOptions off;
  off.budget = 0;
  const SaAllocator sa(CostOptions{.hop_bytes = true}, off);
  const GreedyAllocator greedy;
  const BalancedAllocator balanced;
  const AllocationRequest r = comm_request(8);
  std::vector<NodeId> sa_pick, greedy_pick, balanced_pick;
  ASSERT_TRUE(sa.select_into(state_, r, sa_pick));
  ASSERT_TRUE(greedy.select_into(state_, r, greedy_pick));
  ASSERT_TRUE(balanced.select_into(state_, r, balanced_pick));
  const double gc = price(greedy_pick, r), bc = price(balanced_pick, r);
  // Ties go to balanced, mirroring the adaptive policy.
  EXPECT_EQ(sa_pick, bc <= gc ? balanced_pick : greedy_pick);
  EXPECT_EQ(sa.last_proposals(), 0);
}

TEST_F(SaAllocatorFixture, ComputeJobsFollowTheAdaptiveRule) {
  // Placement-insensitive jobs take the *pricier* candidate, exactly like
  // the adaptive policy — the SA family changes nothing for them.
  const SaAllocator sa(CostOptions{.hop_bytes = true});
  const AdaptiveAllocator adaptive(CostOptions{.hop_bytes = true});
  AllocationRequest r = comm_request(8);
  r.comm_intensive = false;
  std::vector<NodeId> sa_pick, adaptive_pick;
  ASSERT_TRUE(sa.select_into(state_, r, sa_pick));
  ASSERT_TRUE(adaptive.select_into(state_, r, adaptive_pick));
  EXPECT_EQ(sa_pick, adaptive_pick);
}

TEST_F(SaAllocatorFixture, EveryProposalConsumesBudget) {
  // patience 0 runs out the budget: each proposal counts against it,
  // feasible or not, and a multi-slot anneal has no early exit.
  SaOptions opts;
  opts.budget = 32;
  opts.patience = 0;
  const SaAllocator sa(CostOptions{.hop_bytes = true}, opts);
  std::vector<NodeId> nodes;
  ASSERT_TRUE(sa.select_into(state_, comm_request(8), nodes));
  ASSERT_NE(sa.last_priced(), nullptr);
  ASSERT_GE(sa.last_priced()->profile->num_slots, 2);
  EXPECT_EQ(sa.last_proposals(), opts.budget);
}

TEST_F(SaAllocatorFixture, InAnnealVerificationRunsClean) {
  // verify_stride=1: every accepted move re-derives the delta-maintained
  // total with a full recompute; any divergence throws InvariantError.
  SaOptions verified;
  verified.verify_stride = 1;
  const SaAllocator sa(CostOptions{.hop_bytes = true}, verified);
  std::vector<NodeId> nodes;
  for (const Pattern p :
       {Pattern::kPairwiseAlltoall, Pattern::kRecursiveHalvingVD,
        Pattern::kBinomial, Pattern::kRing}) {
    ASSERT_TRUE(sa.select_into(state_, comm_request(8, p), nodes));
    EXPECT_GT(sa.last_accepts(), 0) << pattern_name(p);
  }
}

TEST(SaFactoryTest, RegisteredUnderItsName) {
  EXPECT_EQ(allocator_kind_from_string("sa"), AllocatorKind::kSa);
  const auto sa = make_allocator(AllocatorKind::kSa);
  EXPECT_STREQ(sa->name(), "sa");
  // Paper set untouched: kSa is an extension, not a Figure 6-9 policy.
  EXPECT_EQ(std::size(kAllAllocatorKinds), 4u);
  for (const AllocatorKind kind : kAllAllocatorKinds)
    EXPECT_NE(kind, AllocatorKind::kSa);
}

TEST(SaFactoryTest, NameListStaysInSyncWithRegistry) {
  // Every registered kind parses back to itself, names are unique, and the
  // error-listing helper mentions each one — the sync test for the factory
  // error message.
  std::set<std::string> seen;
  const std::string names = allocator_kind_names();
  for (const AllocatorKind kind : kAllRegisteredAllocatorKinds) {
    const std::string name = allocator_kind_name(kind);
    EXPECT_NE(name, "?");
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
    EXPECT_EQ(allocator_kind_from_string(name), kind);
    EXPECT_NE(names.find(name), std::string::npos)
        << "allocator_kind_names() must list " << name;
    // Round-trip through the factory: the instance reports the same name.
    EXPECT_EQ(make_allocator(kind)->name(), name);
  }
}

TEST(SaFactoryTest, UnknownEnvNameErrorListsEveryPolicy) {
  ::setenv("JOBAWARE", "simulated-annealing", 1);
  try {
    (void)allocator_kind_from_env();
    FAIL() << "unknown JOBAWARE value must throw";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    for (const AllocatorKind kind : kAllRegisteredAllocatorKinds)
      EXPECT_NE(what.find(allocator_kind_name(kind)), std::string::npos)
          << "error message must list " << allocator_kind_name(kind);
  }
  ::unsetenv("JOBAWARE");
}

}  // namespace
}  // namespace commsched
