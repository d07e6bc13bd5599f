// make_leaf_comm_profile lowers each schedule step from the shape's runs;
// the oracle in tests/support/profile_oracle.hpp streams every rank pair.
// The two must agree in every field: classes and their first-appearance
// order, each step's class, msize, repeat and pair counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "collectives/comm_cache.hpp"
#include "collectives/schedule.hpp"
#include "support/profile_oracle.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace commsched {
namespace {

constexpr Pattern kPatterns[] = {
    Pattern::kRecursiveDoubling, Pattern::kRecursiveHalvingVD,
    Pattern::kBinomial, Pattern::kRing, Pattern::kPairwiseAlltoall};

constexpr int kLeaves = 16;
constexpr int kNodesPerLeaf = 4096;

// `n` distinct nodes placed as runs on random leaves. A leaf may come back
// in a later run (as balanced and sa placements do), so slots repeat; run
// lengths are capped by a random power of two and half of them are rounded
// down to a power of two, so runs both straddle and align with the XOR
// periods.
std::vector<NodeId> random_placement(const Tree& tree, int n, Rng& rng) {
  const auto leaves = tree.leaves();
  const int used_leaves = static_cast<int>(
      rng.uniform_int(1, std::min<std::int64_t>(kLeaves, n)));
  const int max_run = 1 << rng.uniform_int(0, 10);
  std::vector<int> taken(kLeaves, 0);
  std::vector<NodeId> nodes;
  while (static_cast<int>(nodes.size()) < n) {
    const int left = n - static_cast<int>(nodes.size());
    int len = static_cast<int>(rng.uniform_int(1, std::min(max_run, left)));
    if (rng.bernoulli(0.5))
      len = static_cast<int>(std::bit_floor(static_cast<unsigned>(len)));
    const auto leaf = static_cast<std::size_t>(
        rng.uniform_int(0, used_leaves - 1));
    const auto attached = tree.nodes_of_leaf(leaves[leaf]);
    for (int i = 0; i < len; ++i)
      nodes.push_back(attached[static_cast<std::size_t>(taken[leaf]++)]);
  }
  return nodes;
}

void expect_matches_oracle(Pattern pattern, const ShapeKey& shape, int rpn,
                           const std::string& what) {
  const double msize = 1 << 10;
  const LeafCommProfile lowered =
      make_leaf_comm_profile(pattern, msize, shape, rpn);
  const LeafCommProfile oracle =
      oracle_leaf_comm_profile(pattern, msize, shape, rpn);
  EXPECT_EQ(lowered, oracle)
      << what << ": " << pattern_name(pattern) << " at p="
      << shape.total_nodes * rpn << ", rpn=" << rpn << ", "
      << shape.runs.size() << " runs over " << shape.num_slots
      << " slots (lowered " << lowered.classes.size() << " classes / "
      << lowered.steps.size() << " steps, oracle " << oracle.classes.size()
      << " / " << oracle.steps.size() << ")";
}

TEST(ProfileLoweringTest, MatchesOracleOnRandomShapesAtEveryRankCount) {
  // Every p from 1 to 600, power-of-two and ragged, at each rpn in 1..4
  // that divides it; two random placements each.
  const Tree tree = make_two_level_tree(kLeaves, kNodesPerLeaf);
  Rng rng(20200817);
  for (int p = 1; p <= 600; ++p) {
    for (int rpn = 1; rpn <= 4; ++rpn) {
      if (p % rpn != 0) continue;
      for (int trial = 0; trial < 2; ++trial) {
        const ShapeKey shape =
            make_shape_key(tree, random_placement(tree, p / rpn, rng));
        for (const Pattern pattern : kPatterns)
          expect_matches_oracle(pattern, shape, rpn, "random");
      }
    }
  }
}

TEST(ProfileLoweringTest, MatchesOracleOnBlockAndStripedShapes) {
  // The two extremes of the run structure: whole leaves in rank order
  // (few long runs) and one node per leaf in turn (one run per node).
  const Tree tree = make_two_level_tree(kLeaves, kNodesPerLeaf);
  const auto leaves = tree.leaves();
  for (const int nodes : {7, 8, 12, 64, 96, 100, 128}) {
    for (const int leaf_count : {2, 3, 8}) {
      std::vector<NodeId> block, striped;
      for (int i = 0; i < nodes; ++i) {
        const int per_leaf = (nodes + leaf_count - 1) / leaf_count;
        block.push_back(tree.nodes_of_leaf(leaves[static_cast<std::size_t>(
            i / per_leaf)])[static_cast<std::size_t>(i % per_leaf)]);
        striped.push_back(tree.nodes_of_leaf(leaves[static_cast<std::size_t>(
            i % leaf_count)])[static_cast<std::size_t>(i / leaf_count)]);
      }
      for (int rpn = 1; rpn <= 4; ++rpn) {
        for (const Pattern pattern : kPatterns) {
          expect_matches_oracle(pattern, make_shape_key(tree, block), rpn,
                                "block");
          expect_matches_oracle(pattern, make_shape_key(tree, striped), rpn,
                                "striped");
        }
      }
    }
  }
}

TEST(ProfileLoweringTest, MatchesOracleOnLargeAlltoall) {
  // Alltoall at 4096 ranks (the materialization cap) and one ragged count
  // next to it, plus the 8192-rank, 512-ranks-per-node shape of
  // LeafCommProfileTest.AlltoallStreamsFarBeyondMaterializationCap.
  const Tree tree = make_two_level_tree(kLeaves, kNodesPerLeaf);
  Rng rng(4096);
  for (const int rpn : {1, 2, 4}) {
    const ShapeKey shape =
        make_shape_key(tree, random_placement(tree, 4096 / rpn, rng));
    expect_matches_oracle(Pattern::kPairwiseAlltoall, shape, rpn, "4096");
  }
  expect_matches_oracle(
      Pattern::kPairwiseAlltoall,
      make_shape_key(tree, random_placement(tree, 4095, rng)), 1, "4095");

  const Tree two_leaves = make_two_level_tree(2, 8);
  std::vector<NodeId> nodes(16);
  for (int i = 0; i < 16; ++i) nodes[i] = static_cast<NodeId>(i);
  expect_matches_oracle(Pattern::kPairwiseAlltoall,
                        make_shape_key(two_leaves, nodes), 512, "8192");
}

}  // namespace
}  // namespace commsched
