// Differential tests for the LeafCommProfile cost path (DESIGN.md "Shape
// canonicalization & CommCache"): profile-based Eq. 6 evaluation must agree
// BIT-FOR-BIT (EXPECT_EQ on doubles, not near) with the pair-by-pair oracle
// (tests/support/cost_oracle.hpp), across every pattern, power-of-two and
// ragged sizes, contiguous/fragmented/multi-leaf shapes, and multi-rank
// expansion.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "collectives/schedule.hpp"
#include "core/cost_model.hpp"
#include "support/cost_oracle.hpp"
#include "topology/builders.hpp"

namespace commsched {
namespace {

constexpr Pattern kAllPatterns[] = {
    Pattern::kRecursiveDoubling, Pattern::kRecursiveHalvingVD,
    Pattern::kBinomial, Pattern::kRing, Pattern::kPairwiseAlltoall};

// 4 leaves x 8 nodes; background jobs load three leaves unevenly so Eq. 2/3
// contention differs per leaf (leaf 3 left idle).
class ProfileDiffFixture : public ::testing::Test {
 protected:
  ProfileDiffFixture() : tree_(make_two_level_tree(4, 8)), state_(tree_) {
    state_.allocate(100, /*comm=*/true, std::vector<NodeId>{0, 1, 2});
    state_.allocate(101, /*comm=*/false, std::vector<NodeId>{8, 9});
    state_.allocate(102, /*comm=*/true,
                    std::vector<NodeId>{16, 17, 18, 19, 20});
  }

  Tree tree_;
  ClusterState state_;
};

TEST_F(ProfileDiffFixture, ProfileMatchesReferenceAndFastKernelBitForBit) {
  const struct {
    const char* name;
    std::vector<NodeId> nodes;
  } shapes[] = {
      // One free leaf, rank-contiguous.
      {"contiguous", {24, 25, 26, 27, 28, 29, 30, 31}},
      // Scattered free nodes, leaf runs of length 1-3 with revisits.
      {"fragmented", {3, 5, 10, 7, 12, 14, 21, 23}},
      // Block per leaf across all four leaves.
      {"multi-leaf", {6, 7, 14, 15, 22, 23, 30, 31}},
  };
  for (const Pattern pattern : kAllPatterns)
    for (const auto& shape_case : shapes)
      for (const int n : {8, 7})  // power of two and ragged
        for (const int rpn : {1, 4})
          for (const bool include_candidate : {true, false}) {
            const std::string label =
                std::string(pattern_name(pattern)) + "/" + shape_case.name +
                "/n=" + std::to_string(n) + "/rpn=" + std::to_string(rpn) +
                (include_candidate ? "/overlay" : "/no-overlay");
            std::vector<NodeId> nodes(shape_case.nodes.begin(),
                                      shape_case.nodes.begin() + n);
            // One model per Eq. 6 sum; the kernel walk serves both.
            const CostModel plain(
                tree_, CostOptions{.hop_bytes = false,
                                   .include_candidate = include_candidate});
            const CostModel weighted(
                tree_, CostOptions{.hop_bytes = true,
                                   .include_candidate = include_candidate});
            const double msize = 1024.0;
            const int nprocs = n * rpn;
            const auto schedule = make_schedule(pattern, nprocs, msize);
            const LeafCommProfile profile = make_leaf_comm_profile(
                pattern, msize, make_shape_key(tree_, nodes), rpn);
            CostWorkspace ws;

            // Committed-allocation pricing (no overlay) and candidate
            // pricing with the job's own ranks overlaid when its options
            // say so: both sums of one walk against each model's one-sum
            // view and the pair-by-pair oracle.
            for (const bool comm : {false, true}) {
              SCOPED_TRACE(label + "/comm=" + std::to_string(comm));
              const CandidateCosts both =
                  plain.candidate_costs(state_, nodes, comm, profile, ws);
              EXPECT_EQ(both,
                        weighted.candidate_costs(state_, nodes, comm, profile,
                                                 ws));
              EXPECT_EQ(both.hops,
                        plain.candidate_cost(state_, nodes, comm, profile, ws));
              EXPECT_EQ(both.hop_bytes, weighted.candidate_cost(
                                            state_, nodes, comm, profile, ws));
              EXPECT_EQ(both.hops,
                        oracle_candidate_cost(plain, state_, nodes, rpn, comm,
                                              schedule));
              EXPECT_EQ(both.hop_bytes,
                        oracle_candidate_cost(weighted, state_, nodes, rpn,
                                              comm, schedule));
              // The delta session sums only the one its options select.
              EXPECT_EQ(plain.delta_begin(state_, nodes, comm, profile, ws),
                        both.hops);
              EXPECT_EQ(weighted.delta_begin(state_, nodes, comm, profile, ws),
                        both.hop_bytes);
            }
          }
}

TEST_F(ProfileDiffFixture, CachedProfileStaysCorrectAsStateMutates) {
  // A profile captures only schedule-on-shape structure — no cluster state —
  // so a cache entry built before other jobs come and go must keep pricing
  // correctly against the *current* state.
  const std::vector<NodeId> nodes{12, 13, 14, 15};
  const CostModel model(tree_, CostOptions{.hop_bytes = true});
  CommCache cache(512.0);
  const CommSchedule schedule =
      make_schedule(Pattern::kPairwiseAlltoall, 4, cache.base_msize());
  const LeafCommProfile& profile = cache.profile(
      Pattern::kPairwiseAlltoall, 1, make_shape_key(tree_, nodes));
  CostWorkspace ws;
  const auto oracle = [&] {
    return oracle_candidate_cost(model, state_, nodes, 1, true, schedule);
  };

  EXPECT_EQ(model.candidate_cost(state_, nodes, true, profile, ws), oracle());

  state_.allocate(200, /*comm=*/true, std::vector<NodeId>{10, 11});
  const double loaded = model.candidate_cost(state_, nodes, true, profile, ws);
  EXPECT_EQ(loaded, oracle());

  state_.release(200);
  EXPECT_EQ(model.candidate_cost(state_, nodes, true, profile, ws), oracle());
  EXPECT_EQ(cache.stats().profile_misses, 1u);  // one entry served all three
  EXPECT_GT(loaded, 0.0);
}

TEST_F(ProfileDiffFixture, OneModelManyThreadsWithPrivateWorkspaces) {
  // One shared CostModel + one pre-warmed profile, each thread bringing its
  // own CostWorkspace: every concurrent evaluation must reproduce the
  // single-threaded value exactly.
  const std::vector<NodeId> nodes{6, 7, 14, 15, 22, 23, 30, 31};
  const CostModel model(tree_, CostOptions{.hop_bytes = true});
  CommCache cache(256.0);
  const LeafCommProfile& profile = cache.profile(
      Pattern::kPairwiseAlltoall, 4, make_shape_key(tree_, nodes));
  CostWorkspace main_ws;
  const double expected =
      model.candidate_cost(state_, nodes, true, profile, main_ws);
  ASSERT_GT(expected, 0.0);

  constexpr int kThreads = 4, kIters = 200;
  std::vector<std::vector<double>> results(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        CostWorkspace workspace;  // per-thread scratch
        results[t].reserve(kIters);
        for (int i = 0; i < kIters; ++i)
          results[t].push_back(model.candidate_cost(state_, nodes, true,
                                                    profile, workspace));
      });
    for (auto& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t)
    for (const double got : results[t]) EXPECT_EQ(got, expected);
}

TEST(CostProfileLargeTest, FourThousandRankAlltoallMatchesStreamedReference) {
  // 8 nodes x 512 ranks/node = 4096 ranks — the profile path's whole point.
  // The reference here is computed inside the test by streaming the schedule
  // and calling effective_hops per rank pair (overlaying the candidate's own
  // ranks), i.e. straight Eq. 6 with no shared kernel code beyond Eq. 5.
  const Tree tree = make_two_level_tree(2, 4);
  const ClusterState state(tree);
  const int rpn = 512;
  std::vector<NodeId> nodes(8);
  for (int i = 0; i < 8; ++i) nodes[i] = static_cast<NodeId>(i);
  const double msize = 4.0;

  const CostModel model(tree, CostOptions{.hop_bytes = true});
  const LeafCommProfile profile = make_leaf_comm_profile(
      Pattern::kPairwiseAlltoall, msize, make_shape_key(tree, nodes), rpn);
  EXPECT_EQ(profile.nprocs, 4096);
  CostWorkspace ws;
  const double via_profile = model.candidate_cost(
      state, nodes, /*comm_intensive=*/true, profile, ws);

  LeafOverlay overlay(tree);
  for (int r = 0; r < rpn; ++r) overlay.add_nodes(tree, nodes);
  double streamed = 0.0;
  for_each_schedule_step(
      Pattern::kPairwiseAlltoall, profile.nprocs, msize,
      [&](const CommStep& step) {
        double worst = 0.0;
        for (const auto& [ri, rj] : step.pairs)
          worst = std::max(worst,
                           model.effective_hops(state, nodes[ri / rpn],
                                                nodes[rj / rpn], &overlay));
        streamed += worst * step.repeat * step.msize;
        return true;
      });
  EXPECT_EQ(via_profile, streamed);
  EXPECT_GT(via_profile, 0.0);
}

}  // namespace
}  // namespace commsched
