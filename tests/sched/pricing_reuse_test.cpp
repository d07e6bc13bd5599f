// Differential lockdown of start-path price reuse (DESIGN.md "Simulator
// pricing"): the simulator walks the Eq. 6 kernel once per distinct
// placement, passes adaptive's priced winner on, and prices the default
// placement only when it differs from the chosen one. The pricing oracle
// (tests/support/pricing_oracle) replays each run's trace and prices every
// start with no reuse at all; cost, cost_default, actual_runtime and
// end_time must match bit for bit across fuzzed logs, every registered
// allocator, both Eq. 6 sums as the pricing metric, the candidate overlay on
// and off, and both engines.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/allocator_factory.hpp"
#include "sched/simulator.hpp"
#include "support/pricing_oracle.hpp"
#include "topology/builders.hpp"
#include "workload/mixes.hpp"
#include "workload/synthetic.hpp"

namespace commsched {
namespace {

// Backlogged theta-shaped logs on an 8 x 16 tree (big enough that default's
// placement often prices differently from the policy's), every pattern in
// the mix and a third of the jobs I/O-intensive, so both Eq. 7 terms are
// exercised.
JobLog fuzz_log(const Tree& tree, int n_jobs, std::uint64_t seed) {
  const LogProfile profile = scale_profile(theta_profile(), tree.node_count());
  JobLog log = generate_log(profile, n_jobs, seed);
  MixSpec spec = uniform_mix(Pattern::kRecursiveDoubling, 0.8, 0.5);
  spec.patterns = {{Pattern::kRecursiveDoubling, 1.0},
                   {Pattern::kRecursiveHalvingVD, 1.0},
                   {Pattern::kBinomial, 1.0},
                   {Pattern::kRing, 1.0},
                   {Pattern::kPairwiseAlltoall, 1.0}};
  spec.io_percent = 0.3;
  spec.io_fraction = 0.3;
  apply_mix(log, spec, seed ^ 0x9E3779B97F4A7C15ull);
  return log;
}

TEST(PricingReuseTest, StartPricesMatchTheFourWalkOracle) {
  const Tree tree = make_two_level_tree(8, 16);
  int adaptive_runs = 0;
  int distinct_baselines = 0;  // starts whose default placement priced apart
  for (const std::uint64_t seed : {5ull, 17ull, 41ull}) {
    const JobLog log = fuzz_log(tree, 120, seed);
    for (const AllocatorKind kind : kAllRegisteredAllocatorKinds)
      for (const bool hop_bytes : {false, true})
        for (const bool include_candidate : {true, false})
          for (const SimEngine engine :
               {SimEngine::kFast, SimEngine::kReference}) {
            const std::string label =
                std::string(allocator_kind_name(kind)) + "/seed=" +
                std::to_string(seed) + (hop_bytes ? "/hop-bytes" : "/hops") +
                (include_candidate ? "/overlay" : "/no-overlay") +
                (engine == SimEngine::kFast ? "/fast" : "/reference");
            SCOPED_TRACE(label);
            std::vector<TraceEvent> trace;
            SchedOptions options;
            options.allocator = kind;
            options.cost_options = {.hop_bytes = hop_bytes,
                                    .include_candidate = include_candidate};
            options.engine = engine;
            options.audit = AuditLevel::kOff;
            options.trace = [&trace](const TraceEvent& e) {
              trace.push_back(e);
            };
            const SimResult sim = run_continuous(tree, log, options);
            const OracleReplay oracle =
                replay_start_pricing(tree, log, options, trace);
            ASSERT_EQ(sim.jobs.size(), oracle.starts.size());
            for (std::size_t i = 0; i < log.size(); ++i) {
              SCOPED_TRACE("job index " + std::to_string(i));
              const OracleStart& want = oracle.starts[i];
              const JobResult& got = sim.jobs[i];
              ASSERT_TRUE(want.started);
              if (want.cost != want.cost_default) ++distinct_baselines;
              EXPECT_EQ(got.cost, want.cost);
              EXPECT_EQ(got.cost_default, want.cost_default);
              EXPECT_EQ(got.actual_runtime, want.actual_runtime);
              EXPECT_EQ(got.end_time, want.end_time);
            }
            // FIFO: every select that prices is followed by its start, so
            // both sides build the same profiles; only the lookups that
            // reuse saves differ.
            EXPECT_EQ(sim.cache_stats.profile_misses,
                      oracle.cache.profile_misses);
            const auto lookups = [](const CacheStats& c) {
              return c.profile_hits + c.profile_misses;
            };
            if (kind == AllocatorKind::kDefault) {
              EXPECT_EQ(lookups(sim.cache_stats), lookups(oracle.cache));
            } else if (kind == AllocatorKind::kAdaptive) {
              EXPECT_LT(lookups(sim.cache_stats), lookups(oracle.cache));
              ++adaptive_runs;
            } else {
              EXPECT_LE(lookups(sim.cache_stats), lookups(oracle.cache));
            }
          }
  }
  EXPECT_EQ(adaptive_runs, 24);
  EXPECT_GT(distinct_baselines, 0);  // the default walk is exercised too
}

TEST(PricingReuseTest, CheapAuditRechecksEveryPassedOnPrice) {
  // With the auditor on, start_job re-prices adaptive's passed-on sums and
  // sa's delta total at every priced start; an honest run passes.
  const Tree tree = make_two_level_tree(8, 16);
  const JobLog log = fuzz_log(tree, 80, 29);
  for (const AllocatorKind kind : {AllocatorKind::kAdaptive,
                                   AllocatorKind::kSa}) {
    SchedOptions options;
    options.allocator = kind;
    options.audit = AuditLevel::kCheap;
    EXPECT_NO_THROW(run_continuous(tree, log, options))
        << allocator_kind_name(kind);
  }
}

}  // namespace
}  // namespace commsched
