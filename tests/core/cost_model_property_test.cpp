// Parameterized invariants of the Eqs. 2-6 cost machinery across machines,
// patterns, job sizes and background load:
//   1. non-negativity, and zero only for <2-rank jobs;
//   2. monotonicity: extra communication-intensive background load never
//      lowers any candidate's cost (contention only ever adds);
//   3. self-inclusion dominance: pricing a comm candidate with its own
//      nodes counted is never cheaper than without;
//   4. additivity: the cost of a concatenated schedule is the sum of its
//      parts (a profile whose steps run twice costs twice as much);
//   5. hop-bytes consistency: with unit message sizes the weighted and
//      unweighted variants agree.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "core/allocator_factory.hpp"
#include "core/cost_model.hpp"
#include "topology/builders.hpp"
#include "util/rng.hpp"

namespace commsched {
namespace {

struct Case {
  const char* machine;
  Pattern pattern;
  int job_nodes;
  std::uint64_t seed;

  friend void PrintTo(const Case& c, std::ostream* os) {
    *os << c.machine << '/' << pattern_name(c.pattern) << "/n"
        << c.job_nodes << "/seed" << c.seed;
  }
};

class CostPropertySweep : public ::testing::TestWithParam<Case> {
 protected:
  void occupy(ClusterState& state, double fraction, std::uint64_t seed,
              bool comm) {
    Rng rng(seed);
    std::vector<NodeId> nodes;
    for (NodeId n = 0; n < state.tree().node_count(); ++n)
      if (state.is_free(n) && rng.bernoulli(fraction)) nodes.push_back(n);
    if (!nodes.empty()) state.allocate(next_job_++, comm, nodes);
  }
  JobId next_job_ = 1;
};

TEST_P(CostPropertySweep, Invariants) {
  const Case& param = GetParam();
  const Tree tree = make_machine(param.machine);
  ClusterState state(tree);
  occupy(state, 0.3, param.seed, /*comm=*/true);
  if (state.total_free() < param.job_nodes) GTEST_SKIP();

  AllocationRequest request;
  request.job = 999;
  request.num_nodes = param.job_nodes;
  request.comm_intensive = true;
  request.pattern = param.pattern;
  const auto allocator = make_allocator(AllocatorKind::kBalanced);
  const auto nodes = allocator->select(state, request);
  ASSERT_TRUE(nodes.has_value());

  const LeafCommProfile profile = make_leaf_comm_profile(
      param.pattern, 1.0, make_shape_key(tree, *nodes), 1);
  const CostModel model(tree);
  CostWorkspace ws;

  // (1) non-negativity / zero cases.
  const double cost = model.candidate_cost(state, *nodes, true, profile, ws);
  if (param.job_nodes >= 2) {
    EXPECT_GT(cost, 0.0);
  } else {
    EXPECT_DOUBLE_EQ(cost, 0.0);
  }

  // (3) self-inclusion dominance.
  const CostModel no_self(tree, CostOptions{.include_candidate = false});
  EXPECT_GE(cost + 1e-12,
            no_self.candidate_cost(state, *nodes, true, profile, ws));

  // (2) background-load monotonicity.
  const double before = cost;
  occupy(state, 0.3, param.seed + 1, /*comm=*/true);
  const double after = model.candidate_cost(state, *nodes, true, profile, ws);
  EXPECT_GE(after + 1e-12, before);

  // (4) additivity: the profile's steps run twice.
  LeafCommProfile doubled = profile;
  doubled.steps.insert(doubled.steps.end(), profile.steps.begin(),
                       profile.steps.end());
  EXPECT_NEAR(model.candidate_cost(state, *nodes, true, doubled, ws),
              2.0 * after, 1e-9 * (1.0 + after));

  // (5) hop-bytes equals hops at unit message sizes.
  const CostModel weighted(tree, CostOptions{.hop_bytes = true});
  EXPECT_NEAR(weighted.candidate_cost(state, *nodes, true, profile, ws),
              [&] {
                // msize is 1.0 already (constructed with base 1.0) for RD,
                // binomial, ring; RHVD doubles per step, so compare against
                // an explicit per-step weighting of one-step profiles that
                // share the classes.
                double expected = 0.0;
                for (const ProfileStep& step : profile.steps) {
                  LeafCommProfile one = profile;
                  one.steps = {step};
                  expected +=
                      model.candidate_cost(state, *nodes, true, one, ws) *
                      step.msize;
                }
                return expected;
              }(),
              1e-6 * (1.0 + after));
}

std::vector<Case> cases() {
  std::vector<Case> out;
  const Pattern patterns[] = {Pattern::kRecursiveDoubling,
                              Pattern::kRecursiveHalvingVD, Pattern::kBinomial,
                              Pattern::kRing};
  for (const char* machine : {"figure2", "department", "iitk"})
    for (const Pattern p : patterns)
      for (const int size : {1, 2, 5, 8, 16})
        for (const std::uint64_t seed : {11u, 22u})
          out.push_back({machine, p, size, seed});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Machines, CostPropertySweep,
                         ::testing::ValuesIn(cases()));

}  // namespace
}  // namespace commsched
