// Determinism contract of the campaign engine (DESIGN.md "Campaign engine
// & parallel execution"): cell seeds are pure functions of the axis labels,
// and the reduced output is bit-identical at any worker count, whatever
// order the cells finish in. The TSan CI job runs this binary to check the
// sharing rules (immutable Tree/CostModel across workers) under the race
// detector.
#include "exp/campaign.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exp/emit.hpp"
#include "topology/builders.hpp"
#include "util/assert.hpp"
#include "workload/synthetic.hpp"

namespace commsched::exp {
namespace {

// A machine small enough that the full grid runs in milliseconds: 4 leaves
// x 16 nodes, 60 jobs sized 2..32 nodes.
MachineCase tiny_machine(const std::string& name, std::uint64_t seed) {
  LogProfile profile;
  profile.name = name;
  profile.machine_nodes = 64;
  profile.min_exp = 1;
  profile.max_exp = 5;
  profile.pow2_fraction = 0.9;
  profile.runtime_log_median = 6.0;  // ~400 s median
  profile.runtime_sigma = 0.8;
  profile.target_load = 0.9;
  return MachineCase{name, make_two_level_tree(4, 16),
                     generate_log(profile, 60, seed)};
}

CampaignSpec tiny_spec(int threads) {
  CampaignSpec spec;
  spec.name = "test";
  spec.quiet = true;
  spec.threads = threads;
  spec.machines.push_back(tiny_machine("M0", 11));
  spec.machines.push_back(tiny_machine("M1", 22));
  spec.mixes.push_back(uniform_mix(Pattern::kRecursiveHalvingVD, 0.9, 0.8));
  spec.mixes.push_back(uniform_mix(Pattern::kRecursiveDoubling, 0.6, 0.5));
  spec.allocators = {AllocatorKind::kDefault, AllocatorKind::kBalanced,
                     AllocatorKind::kAdaptive};
  spec.base_seeds = {7};
  return spec;
}

std::string run_csv(CampaignSpec spec) {
  CampaignRunner runner(std::move(spec));
  return campaign_table(runner.run()).render_csv();
}

TEST(SeedDerivation, DependsOnExactlyBaseMachineMixAllocator) {
  const std::uint64_t s = derive_cell_seed(7, "Theta", "RHVD", "balanced");
  // Pure function: same inputs, same output.
  EXPECT_EQ(s, derive_cell_seed(7, "Theta", "RHVD", "balanced"));
  // Every component matters.
  EXPECT_NE(s, derive_cell_seed(8, "Theta", "RHVD", "balanced"));
  EXPECT_NE(s, derive_cell_seed(7, "Mira", "RHVD", "balanced"));
  EXPECT_NE(s, derive_cell_seed(7, "Theta", "RD", "balanced"));
  EXPECT_NE(s, derive_cell_seed(7, "Theta", "RHVD", "adaptive"));
  // Label boundaries are not ambiguous (no concat collisions).
  EXPECT_NE(derive_cell_seed(7, "ab", "c", "d"),
            derive_cell_seed(7, "a", "bc", "d"));
}

TEST(SeedDerivation, MixSeedExcludesAllocatorAndDiffersFromCellSeed) {
  const std::uint64_t mix = derive_mix_seed(7, "Theta", "RHVD");
  EXPECT_EQ(mix, derive_mix_seed(7, "Theta", "RHVD"));
  EXPECT_NE(mix, derive_mix_seed(7, "Theta", "RD"));
  EXPECT_NE(mix, derive_mix_seed(7, "Mira", "RHVD"));
  // Domain separation: the two derivations never collide on equal labels.
  EXPECT_NE(mix, derive_cell_seed(7, "Theta", "RHVD", ""));
}

TEST(CampaignCells, RowMajorOrderAndFilter) {
  CampaignSpec spec = tiny_spec(1);
  const auto all = spec.cells();
  ASSERT_EQ(all.size(), 2u * 2u * 3u);
  // Row-major: machine outermost, variant innermost.
  EXPECT_EQ(all.front(), (CellCoord{0, 0, 0, 0, 0}));
  EXPECT_EQ(all[1], (CellCoord{0, 0, 1, 0, 0}));
  EXPECT_EQ(all.back(), (CellCoord{1, 1, 2, 0, 0}));

  spec.filter = [](const CampaignSpec&, const CellCoord& c) {
    return c.machine == 0;
  };
  EXPECT_EQ(spec.cells().size(), 6u);
}

TEST(CampaignRunner, ParityAcrossThreadCounts) {
  const std::string serial = run_csv(tiny_spec(1));
  const std::string parallel = run_csv(tiny_spec(8));
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel) << "campaign output must not depend on the "
                                 "worker count";
}

TEST(CampaignRunner, SaAllocatorParityAcrossThreadCounts) {
  // The search allocator's anneal seed is re-mixed per cell from the cell
  // seed, so placements — and therefore the whole reduced table — must be
  // bit-identical at any worker count. One machine/mix keeps the grid small:
  // the anneal makes each cell ~an order of magnitude pricier than greedy.
  CampaignSpec spec;
  spec.name = "sa-parity";
  spec.quiet = true;
  spec.machines.push_back(tiny_machine("M0", 11));
  spec.mixes.push_back(uniform_mix(Pattern::kPairwiseAlltoall, 0.9, 0.8));
  spec.allocators = {AllocatorKind::kGreedy, AllocatorKind::kSa};
  spec.base_seeds = {7};

  CampaignSpec serial_spec = spec;
  serial_spec.threads = 1;
  CampaignSpec parallel_spec = spec;
  parallel_spec.threads = 8;
  const std::string serial = run_csv(std::move(serial_spec));
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, run_csv(std::move(parallel_spec)))
      << "sa placements must not depend on the worker count";
}

TEST(CampaignRunner, CellsCarrySeedsLabelsAndCacheStats) {
  CampaignRunner runner(tiny_spec(2));
  const CampaignResult result = runner.run();
  ASSERT_EQ(result.cells.size(), 12u);

  // Comparison group (machine 0, mix 0): same decorated log across the
  // allocator columns -> same mix_seed; distinct cell_seed per allocator.
  std::set<std::uint64_t> mix_seeds, cell_seeds;
  for (std::size_t a = 0; a < 3; ++a) {
    const CellResult& c = result.at(0, 0, a);
    mix_seeds.insert(c.mix_seed);
    cell_seeds.insert(c.cell_seed);
    EXPECT_EQ(c.machine, "M0");
    EXPECT_EQ(c.base_seed, 7u);
    // Every run decorated ~90% of 60 jobs comm-intensive: the scheduler
    // must have consulted the CommCache.
    EXPECT_GT(c.sim.cache_stats.profile_hits + c.sim.cache_stats.profile_misses,
              0u);
    EXPECT_EQ(c.summary.cache.profile_hits, c.sim.cache_stats.profile_hits);
  }
  EXPECT_EQ(mix_seeds.size(), 1u);
  EXPECT_EQ(cell_seeds.size(), 3u);

  // Default vs proposed must actually differ (the grid is not degenerate).
  EXPECT_NE(result.at(0, 0, 0).summary.total_cost,
            result.at(0, 0, 2).summary.total_cost);
}

TEST(CampaignResult, AtThrowsAndFindReturnsNullForFilteredCells) {
  CampaignSpec spec = tiny_spec(1);
  spec.filter = [](const CampaignSpec&, const CellCoord& c) {
    return c.machine == 0;
  };
  CampaignRunner runner(std::move(spec));
  const CampaignResult result = runner.run();
  EXPECT_NE(result.find(0, 0, 0), nullptr);
  EXPECT_EQ(result.find(1, 0, 0), nullptr);
  EXPECT_THROW((void)result.at(1, 0, 0), InvariantError);
}

TEST(CampaignRunner, VariantAxisAppliesSchedOptions) {
  CampaignSpec spec = tiny_spec(1);
  spec.machines.erase(spec.machines.begin() + 1, spec.machines.end());
  spec.mixes.resize(1);
  spec.allocators = {AllocatorKind::kAdaptive};
  OptionsVariant hops;
  hops.name = "pure-hops";
  hops.options.cost_options.hop_bytes = false;
  spec.variants = {OptionsVariant{}, hops};
  CampaignRunner runner(std::move(spec));
  const CampaignResult result = runner.run();
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_EQ(result.at(0, 0, 0, 0, 1).variant, "pure-hops");
  // Same decorated log either way (variant does not feed the mix seed).
  EXPECT_EQ(result.at(0, 0, 0, 0, 0).mix_seed,
            result.at(0, 0, 0, 0, 1).mix_seed);
}

TEST(CampaignRunner, RunOneMatchesEquivalentCampaignCell) {
  const CampaignSpec spec = tiny_spec(1);
  CampaignRunner runner(tiny_spec(1));
  const CampaignResult result = runner.run();
  const SimResult solo =
      run_one(spec.machines[0], spec.mixes[0], AllocatorKind::kBalanced,
              /*base=*/nullptr, /*seed=*/7);
  const SimResult& cell = result.at(0, 0, 1).sim;
  ASSERT_EQ(solo.jobs.size(), cell.jobs.size());
  for (std::size_t i = 0; i < solo.jobs.size(); ++i) {
    EXPECT_EQ(solo.jobs[i].start_time, cell.jobs[i].start_time);
    EXPECT_EQ(solo.jobs[i].actual_runtime, cell.jobs[i].actual_runtime);
  }
}

}  // namespace
}  // namespace commsched::exp
