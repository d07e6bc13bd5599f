// The one-slot exit of the simulated-annealing allocator (DESIGN.md
// "Delta-cost evaluation & search allocators"): a one-slot anneal ends once
// every leaf that can hold the job has been priced. The exit must be exact.
// On fuzzed, partially occupied states the allocator's placement and the
// cost it hands on must equal a reference walk without the exit
// (tests/support/sa_reference) bit for bit. Only the proposal and accept
// counts may fall, and only on one-slot requests. A simulator leg replays
// sa runs on fuzzed logs against the same reference; under
// COMMSCHED_AUDIT=full it also re-prices every accept of the shortened
// anneals (verify_stride 1) and checks each claimed cost.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/allocator_factory.hpp"
#include "core/degradation_model.hpp"
#include "core/sa_allocator.hpp"
#include "sched/simulator.hpp"
#include "support/sa_fuzz.hpp"
#include "support/sa_reference.hpp"
#include "topology/builders.hpp"

namespace commsched {
namespace {

constexpr Pattern kPatterns[] = {
    Pattern::kRecursiveDoubling, Pattern::kRecursiveHalvingVD,
    Pattern::kBinomial, Pattern::kRing, Pattern::kPairwiseAlltoall};

// The default anneal seed and a second one: two move streams per request.
constexpr std::uint64_t kSaSeeds[] = {SaOptions{}.seed, 7};

struct ExitCounts {
  int one_slot = 0;         // priced one-slot anneals
  int one_slot_fewer = 0;   // ... that ended before the reference walk did
  int one_candidate = 0;    // ... whose only candidate was the seed's leaf
  int multi_slot = 0;
};

// One select of the allocator against the reference walk.
void compare(const SaAllocator& sa, const ClusterState& state,
             const AllocationRequest& request, const CostOptions& cost_options,
             const SaOptions& options, const std::shared_ptr<CommCache>& cache,
             ExitCounts& counts) {
  std::vector<NodeId> got;
  const bool found = sa.select_into(state, request, got);
  const ReferenceSaPick want =
      reference_sa_select(state, request, cost_options, options, cache);
  ASSERT_EQ(found, want.found);
  EXPECT_EQ(got, want.nodes);
  const PricedPlacement* priced = sa.last_priced();
  ASSERT_EQ(priced != nullptr, want.has_cost);
  if (priced != nullptr) {  // bit for bit
    EXPECT_EQ(CostModel(state.tree(), cost_options).selected(priced->costs),
              want.cost);
  }
  EXPECT_LE(sa.last_proposals(), want.proposals);
  EXPECT_LE(sa.last_accepts(), want.accepts);
  if (want.slots > 1) {
    ++counts.multi_slot;
    EXPECT_EQ(sa.last_proposals(), want.proposals);
    EXPECT_EQ(sa.last_accepts(), want.accepts);
  } else if (want.slots == 1 && want.proposals > 0) {
    ++counts.one_slot;
    if (sa.last_proposals() < want.proposals) ++counts.one_slot_fewer;
    if (want.candidate_leaves == 1) {
      ++counts.one_candidate;
      EXPECT_EQ(sa.last_proposals(), 0);
    }
  }
}

void sweep_tree(const Tree& tree, const std::vector<std::uint64_t>& seeds,
                int multi_cap, ExitCounts& counts) {
  // A cache of the allocator's default base message size, private to the
  // reference walk.
  const auto cache = std::make_shared<CommCache>(double{1 << 20});
  JobId job = 5000;
  for (const std::uint64_t seed : seeds) {
    const ClusterState state = sa_fuzz_state(tree, seed);
    for (const int n : sa_request_sizes(state, multi_cap)) {
      for (const Pattern pattern : kPatterns) {
        AllocationRequest request;
        request.job = job++;
        request.num_nodes = n;
        request.comm_intensive = true;
        request.pattern = pattern;
        for (const bool hop_bytes : {false, true}) {
          const CostOptions cost_options{.hop_bytes = hop_bytes};
          for (const std::uint64_t sa_seed : kSaSeeds) {
            for (const int stride : {0, 1}) {
              SaOptions options;
              options.seed = sa_seed;
              options.verify_stride = stride;
              const SaAllocator sa(cost_options, options);
              SCOPED_TRACE("seed " + std::to_string(seed) + " nodes " +
                           std::to_string(n) + " " + pattern_name(pattern) +
                           (hop_bytes ? " hop-bytes" : " hops") +
                           " sa seed " + std::to_string(sa_seed) +
                           " stride " + std::to_string(stride));
              compare(sa, state, request, cost_options, options, cache,
                      counts);
            }
          }
        }
      }
    }
  }
}

void expect_coverage(const ExitCounts& counts) {
  EXPECT_GT(counts.one_slot, 0);
  EXPECT_GT(counts.one_slot_fewer, 0);
  EXPECT_GT(counts.multi_slot, 0);
}

TEST(SaExitTest, TwoLevelTreeMatchesTheReferenceWalk) {
  ExitCounts counts;
  sweep_tree(make_two_level_tree(8, 16), {1, 2, 3}, 96, counts);
  expect_coverage(counts);
  // Some requests fit only the seed's leaf; compare() expects no proposal.
  EXPECT_GT(counts.one_candidate, 0);
}

TEST(SaExitTest, ThreeLevelTreeMatchesTheReferenceWalk) {
  ExitCounts counts;
  sweep_tree(make_three_level_tree(3, 4, 8), {4, 5, 6}, 64, counts);
  expect_coverage(counts);
}

TEST(SaExitTest, ThetaTreeMatchesTheReferenceWalk) {
  // Theta's 366-node leaves hold most jobs whole, which is where the exit
  // pays off.
  ExitCounts counts;
  sweep_tree(make_theta(), {7, 8}, 800, counts);
  expect_coverage(counts);
}

TEST(SaExitTest, SimulatorStartsMatchTheReferenceWalk) {
  // The audit level is left to COMMSCHED_AUDIT: at full, every accept of
  // the shortened anneals is re-priced and every claimed cost re-checked.
  const Tree tree = make_two_level_tree(8, 16);
  int one_slot_starts = 0;
  for (const std::uint64_t seed : {7ull, 19ull}) {
    const JobLog log = sa_fuzz_log(tree, 100, seed);
    for (const std::uint64_t sa_seed : kSaSeeds) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " sa seed " +
                   std::to_string(sa_seed));
      std::vector<TraceEvent> trace;
      SchedOptions options;
      options.allocator = AllocatorKind::kSa;
      options.sa.budget = 400;
      options.sa.seed = sa_seed;
      options.trace = [&trace](const TraceEvent& e) { trace.push_back(e); };
      const SimResult sim = run_continuous(tree, log, options);
      ASSERT_EQ(sim.jobs.size(), log.size());

      // Replay the run's starts and ends on a private state; each start
      // selects through the reference walk, and its placement's unweighted
      // Eq. 6 cost must be the one the simulator recorded.
      std::unordered_map<WorkloadJobId, std::size_t> index_of;
      for (std::size_t i = 0; i < log.size(); ++i)
        index_of.emplace(log[i].id, i);
      ClusterState state(tree);
      const auto cache = std::make_shared<CommCache>(log.front().msize);
      const CostModel model(tree, options.cost_options);
      CostWorkspace ws;
      for (const TraceEvent& event : trace) {
        const std::size_t idx = index_of.at(event.job);
        const JobRecord& job = log[idx];
        const auto id = static_cast<JobId>(idx) + 1;  // the simulator's
        if (event.kind == TraceEvent::Kind::kEnd) state.release(id);
        if (event.kind != TraceEvent::Kind::kStart) continue;
        AllocationRequest request;
        request.job = id;
        request.num_nodes = job.num_nodes;
        request.comm_intensive = job.comm_intensive;
        request.pattern = job.pattern;
        const ReferenceSaPick pick = reference_sa_select(
            state, request, options.cost_options, options.sa, cache);
        ASSERT_TRUE(pick.found) << "job index " << idx;
        const bool price_comm = job.comm_intensive && job.num_nodes >= 2;
        if (price_comm) {
          const CandidateCosts costs = model.candidate_costs(
              state, pick.nodes, true,
              cache->profile(job.pattern, /*ranks_per_node=*/1,
                             make_shape_key(tree, pick.nodes)),
              ws);
          EXPECT_EQ(sim.jobs[idx].cost, costs.hops) << "job index " << idx;
          if (pick.slots == 1) ++one_slot_starts;
        }
        state.allocate(id, job.comm_intensive, pick.nodes, job.io_intensive,
                       DegradationModel::quantize_load(price_comm,
                                                       job.comm_fraction));
      }
    }
  }
  EXPECT_GT(one_slot_starts, 0);
}

}  // namespace
}  // namespace commsched
