// Differential test of CostModel's profile kernel against the pair-by-pair
// Eq. 6 oracle (tests/support/cost_oracle.hpp): randomized trees (varying
// fan-out and depth, irregular leaf sizes), random communication and quiet
// background load, shuffled distinct node lists at 1, 2 and 3 ranks per
// node, all five Pattern schedules, both CostOptions flags and both
// comm_intensive values. The kernel performs the oracle's floating-point
// operations once per distinct leaf pair and sums the steps in the oracle's
// order, so the two must agree bit for bit (EXPECT_EQ on doubles).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "collectives/schedule.hpp"
#include "core/cost_model.hpp"
#include "support/cost_oracle.hpp"
#include "topology/tree.hpp"
#include "util/rng.hpp"

namespace commsched {
namespace {

constexpr Pattern kAllPatterns[] = {
    Pattern::kRecursiveDoubling, Pattern::kRecursiveHalvingVD,
    Pattern::kBinomial, Pattern::kRing, Pattern::kPairwiseAlltoall};

// Random tree: depth 2 or 3, irregular fan-out, irregular leaf sizes.
Tree random_tree(Rng& rng) {
  TreeBuilder builder;
  const bool three_level = rng.bernoulli(0.5);
  int node = 0;
  int leaf = 0;
  if (!three_level) {
    const int leaves = static_cast<int>(rng.uniform_int(2, 10));
    std::vector<SwitchId> leaf_ids;
    for (int l = 0; l < leaves; ++l) {
      const int width = static_cast<int>(rng.uniform_int(1, 8));
      std::vector<std::string> names;
      for (int n = 0; n < width; ++n) names.push_back("n" + std::to_string(node++));
      leaf_ids.push_back(builder.add_leaf("s" + std::to_string(leaf++), names));
    }
    builder.add_switch("root", leaf_ids);
  } else {
    const int groups = static_cast<int>(rng.uniform_int(2, 4));
    std::vector<SwitchId> group_ids;
    for (int g = 0; g < groups; ++g) {
      const int leaves = static_cast<int>(rng.uniform_int(1, 4));
      std::vector<SwitchId> leaf_ids;
      for (int l = 0; l < leaves; ++l) {
        const int width = static_cast<int>(rng.uniform_int(1, 6));
        std::vector<std::string> names;
        for (int n = 0; n < width; ++n)
          names.push_back("n" + std::to_string(node++));
        leaf_ids.push_back(builder.add_leaf("s" + std::to_string(leaf++), names));
      }
      group_ids.push_back(
          builder.add_switch("g" + std::to_string(g), leaf_ids));
    }
    builder.add_switch("root", group_ids);
  }
  return builder.build();
}

// Random background load: some communication-intensive, some not.
void random_occupy(ClusterState& state, Rng& rng) {
  JobId job = 1'000;
  std::vector<NodeId> comm_nodes, quiet_nodes;
  for (NodeId n = 0; n < state.tree().node_count(); ++n) {
    const double p = rng.uniform_real(0.0, 1.0);
    if (p < 0.25)
      comm_nodes.push_back(n);
    else if (p < 0.45)
      quiet_nodes.push_back(n);
  }
  if (!comm_nodes.empty()) state.allocate(job++, /*comm=*/true, comm_nodes);
  if (!quiet_nodes.empty()) state.allocate(job++, /*comm=*/false, quiet_nodes);
}

constexpr int kRanksPerNode[] = {1, 2, 3};

// Shuffled distinct nodes anywhere on the machine (free or busy: the cost
// arithmetic does not depend on availability).
std::vector<NodeId> random_nodes(const Tree& tree, Rng& rng) {
  const auto count = static_cast<std::size_t>(
      rng.uniform_int(1, static_cast<std::int64_t>(tree.node_count())));
  std::vector<NodeId> nodes;
  for (const std::size_t p : rng.sample_without_replacement(
           static_cast<std::size_t>(tree.node_count()), count))
    nodes.push_back(static_cast<NodeId>(p));
  rng.shuffle(nodes);
  return nodes;
}

TEST(CostModelDiffTest, FastKernelMatchesReferenceEverywhere) {
  CostWorkspace ws;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(0xC05'7D1FF + seed);
    const Tree tree = random_tree(rng);
    ClusterState state(tree);
    random_occupy(state, rng);

    for (const bool hop_bytes : {false, true}) {
      for (const bool include_candidate : {false, true}) {
        const CostModel model(tree, CostOptions{
                                        .hop_bytes = hop_bytes,
                                        .include_candidate = include_candidate,
                                    });
        for (const Pattern pattern : kAllPatterns) {
          for (const int rpn : kRanksPerNode) {
            const auto nodes = random_nodes(tree, rng);
            const double msize = rng.uniform_real(1.0, 4096.0);
            const int nprocs = static_cast<int>(nodes.size()) * rpn;
            const auto schedule = make_schedule(pattern, nprocs, msize);
            const LeafCommProfile profile = make_leaf_comm_profile(
                pattern, msize, make_shape_key(tree, nodes), rpn);

            SCOPED_TRACE("seed=" + std::to_string(seed) + " pattern=" +
                         pattern_name(pattern) + " nodes=" +
                         std::to_string(nodes.size()) +
                         " rpn=" + std::to_string(rpn) +
                         " hop_bytes=" + std::to_string(hop_bytes) +
                         " include_candidate=" +
                         std::to_string(include_candidate));

            for (const bool comm_intensive : {false, true}) {
              EXPECT_EQ(model.candidate_cost(state, nodes, comm_intensive,
                                             profile, ws),
                        oracle_candidate_cost(model, state, nodes, rpn,
                                              comm_intensive, schedule))
                  << "comm_intensive=" << comm_intensive;
            }
          }
        }
      }
    }
  }
}

// The kernel's scratch lives in the caller's CostWorkspace and is reused
// across calls; verify that interleaving calls with different profiles,
// rank counts and overlay modes on ONE workspace never contaminates a later
// result.
TEST(CostModelDiffTest, ScratchReuseAcrossInterleavedCalls) {
  Rng rng(2026'08'06);
  const Tree tree = random_tree(rng);
  ClusterState state(tree);
  random_occupy(state, rng);
  const CostModel model(tree, CostOptions{.hop_bytes = true});

  struct Query {
    std::vector<NodeId> nodes;
    LeafCommProfile profile;
    bool comm_intensive = false;
    double expected = 0.0;
  };
  std::vector<Query> queries;
  for (int q = 0; q < 24; ++q) {
    Query query;
    query.nodes = random_nodes(tree, rng);
    const Pattern pattern =
        kAllPatterns[static_cast<std::size_t>(q) % std::size(kAllPatterns)];
    const int rpn =
        kRanksPerNode[static_cast<std::size_t>(q) % std::size(kRanksPerNode)];
    query.profile = make_leaf_comm_profile(
        pattern, 64.0, make_shape_key(tree, query.nodes), rpn);
    query.comm_intensive = rng.bernoulli(0.5);
    query.expected = oracle_candidate_cost(
        model, state, query.nodes, rpn, query.comm_intensive,
        make_schedule(pattern, query.profile.nprocs, 64.0));
    queries.push_back(std::move(query));
  }
  // Two interleaved passes: every call must reproduce its oracle value
  // regardless of what the previous call left in the scratch.
  CostWorkspace ws;
  for (int pass = 0; pass < 2; ++pass) {
    for (const Query& query : queries) {
      EXPECT_EQ(model.candidate_cost(state, query.nodes, query.comm_intensive,
                                     query.profile, ws),
                query.expected);
    }
  }
}

}  // namespace
}  // namespace commsched
