// Differential lockdown of start-path price reuse (DESIGN.md "Simulator
// pricing"): the simulator walks the Eq. 6 kernel once per distinct
// placement, passes adaptive's priced winner on, and prices the default
// placement only when it differs from the chosen one. The pricing oracle
// (tests/support/pricing_oracle) replays each run's trace and prices every
// start with no reuse at all; cost, cost_default, actual_runtime and
// end_time must match bit for bit across fuzzed logs, every registered
// allocator, both Eq. 6 sums as the pricing metric, the candidate overlay on
// and off, and both engines. sa also runs on logs of small jobs, where its
// anneals beat their seeds and the price it hands on is its own walk.
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
// exercised. `small_jobs` draws 2- to 64-node requests instead: many fit
// one leaf and the rest span a few, which is where sa's anneal ends cheaper
// than its seed.
JobLog fuzz_log(const Tree& tree, int n_jobs, std::uint64_t seed,
                bool small_jobs = false) {
  LogProfile profile = scale_profile(theta_profile(), tree.node_count());
  if (small_jobs) {
    profile.min_exp = 1;
    profile.max_exp = 6;
  }
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

struct Totals {
  int adaptive_runs = 0;
  int distinct_baselines = 0;  // starts whose default placement priced apart
  int sa_moved = 0;            // sa starts whose anneal beat its seed
};

// One run of `kind` against the oracle, under every pricing metric, with
// the candidate overlay on and off, and on both engines.
void expect_oracle_prices(const Tree& tree, const JobLog& log,
                          AllocatorKind kind, const std::string& log_label,
                          Totals& totals) {
  for (const bool hop_bytes : {false, true})
    for (const bool include_candidate : {true, false})
      for (const SimEngine engine : {SimEngine::kFast, SimEngine::kReference}) {
        const std::string label =
            std::string(allocator_kind_name(kind)) + "/" + log_label +
            (hop_bytes ? "/hop-bytes" : "/hops") +
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
        options.trace = [&trace](const TraceEvent& e) { trace.push_back(e); };
        const SimResult sim = run_continuous(tree, log, options);
        const OracleReplay oracle =
            replay_start_pricing(tree, log, options, trace);
        ASSERT_EQ(sim.jobs.size(), oracle.starts.size());
        for (std::size_t i = 0; i < log.size(); ++i) {
          SCOPED_TRACE("job index " + std::to_string(i));
          const OracleStart& want = oracle.starts[i];
          const JobResult& got = sim.jobs[i];
          ASSERT_TRUE(want.started);
          if (want.cost != want.cost_default) ++totals.distinct_baselines;
          EXPECT_EQ(got.cost, want.cost);
          EXPECT_EQ(got.cost_default, want.cost_default);
          EXPECT_EQ(got.actual_runtime, want.actual_runtime);
          EXPECT_EQ(got.end_time, want.end_time);
        }
        totals.sa_moved += oracle.sa_moved;
        // FIFO: every select that prices is followed by its start, so both
        // sides build the same profiles; only the lookups that reuse saves
        // differ.
        EXPECT_EQ(sim.cache_stats.profile_misses,
                  oracle.cache.profile_misses);
        const auto lookups = [](const CacheStats& c) {
          return c.profile_hits + c.profile_misses;
        };
        if (kind == AllocatorKind::kDefault) {
          EXPECT_EQ(lookups(sim.cache_stats), lookups(oracle.cache));
        } else if (kind == AllocatorKind::kAdaptive ||
                   kind == AllocatorKind::kIoAware) {
          EXPECT_LT(lookups(sim.cache_stats), lookups(oracle.cache));
          if (kind == AllocatorKind::kAdaptive) ++totals.adaptive_runs;
        } else {
          EXPECT_LE(lookups(sim.cache_stats), lookups(oracle.cache));
        }
      }
}

TEST(PricingReuseTest, StartPricesMatchTheFourWalkOracle) {
  const Tree tree = make_two_level_tree(8, 16);
  Totals totals;
  for (const std::uint64_t seed : {5ull, 17ull, 41ull}) {
    const std::string seed_label = "seed=" + std::to_string(seed);
    const JobLog log = fuzz_log(tree, 120, seed);
    for (const AllocatorKind kind : kAllRegisteredAllocatorKinds)
      expect_oracle_prices(tree, log, kind, seed_label, totals);
    // sa on small jobs: anneals that end cheaper than their seed, so the
    // price sa hands on comes from its end-of-anneal walk.
    expect_oracle_prices(tree, fuzz_log(tree, 120, seed, /*small_jobs=*/true),
                         AllocatorKind::kSa, seed_label + "/small-jobs",
                         totals);
  }
  EXPECT_EQ(totals.adaptive_runs, 24);
  EXPECT_GT(totals.distinct_baselines, 0);  // the default walk is exercised
  EXPECT_GT(totals.sa_moved, 0);
}

TEST(PricingReuseTest, CheapAuditRechecksEveryPassedOnPrice) {
  // With the auditor on, start_job re-prices every passed-on price at every
  // priced start; an honest run passes.
  const Tree tree = make_two_level_tree(8, 16);
  const JobLog log = fuzz_log(tree, 80, 29);
  for (const AllocatorKind kind : {AllocatorKind::kAdaptive,
                                   AllocatorKind::kIoAware,
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
