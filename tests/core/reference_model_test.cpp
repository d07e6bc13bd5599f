// Cross-checks the default, greedy and balanced allocators against
// independent reimplementations of stock best-fit (§3.1) and the paper's
// Algorithm 1/2 *arithmetic* (how many nodes land on which leaf, given the
// sorted leaf order). The production code walks node lists and cluster
// state; the reference model here works purely on (free-count, ratio)
// tuples — if both agree across randomized states, the production
// bookkeeping is faithful to the pseudocode.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/allocator_common.hpp"
#include "core/balanced_allocator.hpp"
#include "core/default_allocator.hpp"
#include "core/greedy_allocator.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace commsched {
namespace {

struct LeafInfo {
  SwitchId leaf;
  int free;
  double ratio;
};

// Stock SLURM topology/tree on a two-level tree (§3.1), over abstract leaf
// tuples: the best-fitting single leaf (fewest free nodes that still hold
// the request, ties by leaf id) when one exists, else every leaf filled
// fewest-free-first, ties by leaf id.
std::map<SwitchId, int> reference_best_fit(std::vector<LeafInfo> leaves,
                                           int n) {
  std::sort(leaves.begin(), leaves.end(),
            [](const LeafInfo& a, const LeafInfo& b) {
              if (a.free != b.free) return a.free < b.free;
              return a.leaf < b.leaf;
            });
  for (const LeafInfo& leaf : leaves)
    if (leaf.free >= n) return {{leaf.leaf, n}};
  std::map<SwitchId, int> out;
  int remaining = n;
  for (const LeafInfo& leaf : leaves) {
    const int take = std::min(leaf.free, remaining);
    out[leaf.leaf] = take;
    remaining -= take;
    if (remaining == 0) break;
  }
  return out;
}

// Algorithm 1 lines 7-18, over abstract leaf tuples.
std::map<SwitchId, int> reference_greedy(std::vector<LeafInfo> leaves, int n,
                                         bool comm) {
  std::stable_sort(leaves.begin(), leaves.end(),
                   [&](const LeafInfo& a, const LeafInfo& b) {
                     if (a.ratio != b.ratio)
                       return comm ? a.ratio < b.ratio : a.ratio > b.ratio;
                     return a.leaf < b.leaf;
                   });
  std::map<SwitchId, int> out;
  int remaining = n;
  for (const LeafInfo& leaf : leaves) {
    const int take = std::min(leaf.free, remaining);
    if (take > 0) out[leaf.leaf] = take;
    remaining -= take;
    if (remaining == 0) break;
  }
  return out;
}

// Algorithm 2 lines 7-27 (comm branch), over abstract leaf tuples.
std::map<SwitchId, int> reference_balanced_comm(std::vector<LeafInfo> leaves,
                                                int n) {
  std::stable_sort(leaves.begin(), leaves.end(),
                   [](const LeafInfo& a, const LeafInfo& b) {
                     if (a.free != b.free) return a.free > b.free;
                     return a.leaf < b.leaf;
                   });
  std::map<SwitchId, int> out;
  int remaining = n;
  int chunk = n;
  std::vector<int> used(leaves.size(), 0);
  for (std::size_t i = 0; i < leaves.size() && remaining > 0; ++i) {
    while (chunk > leaves[i].free) chunk /= 2;
    if (chunk == 0) break;
    const int take = std::min(chunk, remaining);
    used[i] = take;
    remaining -= take;
  }
  if (remaining > 0) {
    for (std::size_t i = leaves.size(); i-- > 0 && remaining > 0;) {
      const int extra = std::min(leaves[i].free - used[i], remaining);
      used[i] += extra;
      remaining -= extra;
    }
  }
  for (std::size_t i = 0; i < leaves.size(); ++i)
    if (used[i] > 0) out[leaves[i].leaf] = used[i];
  return out;
}

struct RandomState {
  Tree tree;
  ClusterState state;
  explicit RandomState(std::uint64_t seed)
      : tree(make_two_level_tree(6, 16)), state(tree) {
    Rng rng(seed);
    JobId job = 1;
    for (const SwitchId leaf : tree.leaves()) {
      std::vector<NodeId> busy;
      for (const NodeId n : tree.nodes_of_leaf(leaf))
        if (rng.bernoulli(rng.uniform_real(0.0, 0.8))) busy.push_back(n);
      if (!busy.empty()) state.allocate(job++, rng.bernoulli(0.5), busy);
    }
  }

  std::vector<LeafInfo> leaf_infos() const {
    std::vector<LeafInfo> infos;
    for (const SwitchId leaf : tree.leaves())
      if (state.leaf_free(leaf) > 0)
        infos.push_back({leaf, state.leaf_free(leaf),
                         communication_ratio(state, leaf)});
    return infos;
  }
};

std::map<SwitchId, int> per_leaf(const Tree& tree,
                                 const std::vector<NodeId>& nodes) {
  std::map<SwitchId, int> counts;
  for (const NodeId n : nodes) ++counts[tree.leaf_of(n)];
  return counts;
}

class ReferenceModelSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int, bool>> {};

TEST_P(ReferenceModelSweep, DefaultMatchesStockBestFit) {
  const auto [seed, request, comm] = GetParam();
  const RandomState rs(seed);
  if (rs.state.total_free() < request) return;

  AllocationRequest req;
  req.job = 99;
  req.num_nodes = request;
  req.comm_intensive = comm;
  const DefaultAllocator stock;
  const auto nodes = stock.select(rs.state, req);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(per_leaf(rs.tree, *nodes),
            reference_best_fit(rs.leaf_infos(), request));
  // Algorithm 2 lines 30-35: balanced places a compute job exactly as stock
  // best-fit does, node for node.
  if (!comm) {
    EXPECT_EQ(BalancedAllocator{}.select(rs.state, req), nodes);
  }
}

TEST_P(ReferenceModelSweep, GreedyMatchesAlgorithm1Arithmetic) {
  const auto [seed, request, comm] = GetParam();
  const RandomState rs(seed);
  if (rs.state.total_free() < request) return;
  // The reference model covers the multi-leaf path; when a single leaf can
  // host the request the production code takes just that leaf (Algorithm 1
  // lines 3-5), which DefaultMatchesStockBestFit covers.
  const SwitchId top = find_lowest_level_switch(rs.state, request);
  if (rs.tree.is_leaf(top)) return;

  AllocationRequest req;
  req.job = 99;
  req.num_nodes = request;
  req.comm_intensive = comm;
  const GreedyAllocator alloc;
  const auto nodes = alloc.select(rs.state, req);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(per_leaf(rs.tree, *nodes),
            reference_greedy(rs.leaf_infos(), request, comm));
}

TEST_P(ReferenceModelSweep, BalancedMatchesAlgorithm2Arithmetic) {
  const auto [seed, request, comm] = GetParam();
  if (!comm) return;  // the compute branch is plain min-free fill
  const RandomState rs(seed);
  if (rs.state.total_free() < request) return;
  const SwitchId top = find_lowest_level_switch(rs.state, request);
  if (rs.tree.is_leaf(top)) return;

  AllocationRequest req;
  req.job = 99;
  req.num_nodes = request;
  req.comm_intensive = true;
  const BalancedAllocator alloc;
  const auto nodes = alloc.select(rs.state, req);
  ASSERT_TRUE(nodes.has_value());
  EXPECT_EQ(per_leaf(rs.tree, *nodes),
            reference_balanced_comm(rs.leaf_infos(), request));
}

std::vector<std::tuple<std::uint64_t, int, bool>> sweep_cases() {
  std::vector<std::tuple<std::uint64_t, int, bool>> cases;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u})
    for (const int request : {8, 16, 17, 24, 32, 48, 64})
      for (const bool comm : {true, false})
        cases.emplace_back(seed, request, comm);
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomStates, ReferenceModelSweep,
                         ::testing::ValuesIn(sweep_cases()));

}  // namespace
}  // namespace commsched
