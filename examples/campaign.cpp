// Campaign engine walkthrough: declare a grid of continuous-run
// experiments, execute its cells in parallel, and pull numbers out of the
// result — the same API every bench/ harness is built on.
//
// A campaign is (machines × mixes × allocators × seeds × option variants);
// each cell is one independent run_continuous call. The engine derives each
// cell's RNG seed by hashing the axis labels (never iteration order or
// thread id), so the output is bit-identical at any worker count — try
//
//   $ COMMSCHED_THREADS=1 ./campaign
//   $ COMMSCHED_THREADS=8 ./campaign
//
// and diff the output. The same determinism extends across processes
// (DESIGN.md "Campaign persistence, sharding & resume"):
//
//   $ COMMSCHED_STREAM_DIR=out ./campaign    # streams cells to a JSONL file
//                                            # and resumes it if killed
//   $ COMMSCHED_SHARD=0/2 COMMSCHED_STREAM_DIR=out ./campaign   # half the
//   $ COMMSCHED_SHARD=1/2 COMMSCHED_STREAM_DIR=out ./campaign   # grid each
//   $ tools/campaign_merge merged out/example.s0of2.jsonl <shard-1 stream>
//                                            # == the single-process bytes
#include <cstdint>
#include <iostream>
#include <utility>

#include "exp/campaign.hpp"
#include "exp/emit.hpp"
#include "metrics/summary.hpp"

using namespace commsched;

int main() {
  // 1. Declare the grid. Machines are built once per campaign; workers
  //    share each Tree read-only and copy only the per-cell job log.
  exp::CampaignSpec spec;
  spec.name = "example";
  spec.machines.push_back(exp::paper_machine("Theta", /*n_jobs=*/300));
  spec.mixes.push_back(uniform_mix(Pattern::kRecursiveHalvingVD, 0.9, 0.8));
  spec.mixes.push_back(uniform_mix(Pattern::kRecursiveDoubling, 0.9, 0.8));
  spec.allocators = {AllocatorKind::kDefault, AllocatorKind::kBalanced,
                     AllocatorKind::kAdaptive};

  // Optional knobs (all default sensibly):
  //   spec.threads = 4;            // else COMMSCHED_THREADS / hardware
  //   spec.quiet = true;           // else progress lines on stderr
  //   spec.base_seeds = {1, 2, 3}; // replicate the grid across seeds
  //   spec.variants = {...};       // SchedOptions ablations (see ablation.cpp)
  //   spec.filter = ...;           // drop cells from a partial grid
  //   spec.stream_path = "x.jsonl";// crash-safe per-cell stream + resume
  //                                // (else COMMSCHED_STREAM_DIR; see header)

  // 2. Run it. Cells execute in parallel; the result vector is reduced in
  //    cell order regardless of completion order.
  exp::CampaignRunner runner(std::move(spec));
  const exp::CampaignResult result = runner.run();
  const exp::CampaignSpec& grid = runner.spec();

  // Under COMMSCHED_SHARD=i/N this process ran only its slice of the grid,
  // so result.at() would throw for the other shards' cells. Emit the slice
  // and point at the merge step instead of shaping partial tables.
  if (exp::emit_shard_slice(grid, "example campaign", result,
                            "example_campaign"))
    return 0;

  // 3. Shape tables from cells. at(machine, mix, allocator) indexes the
  //    grid; every cell carries the SimResult, its RunSummary, and the
  //    seeds the engine derived for it.
  TextTable table;
  table.set_header({"mix", "policy", "exec (h)", "wait (h)",
                    "profile-cache hit %"});
  for (std::size_t x = 0; x < grid.mixes.size(); ++x) {
    for (std::size_t a = 0; a < grid.allocators.size(); ++a) {
      const exp::CellResult& c = result.at(0, x, a);
      table.add_row({c.mix, c.allocator, cell(c.summary.total_exec_hours, 1),
                     cell(c.summary.total_wait_hours, 1),
                     cell(c.summary.cache.profile_hit_rate() * 100.0, 1)});
    }
  }
  std::cout << "A 1x2x3 campaign on Theta (300 jobs):\n" << table.render(2);

  // Cells in one comparison group (same machine + mix, different allocator)
  // share the same decorated job log: mix_seed excludes the allocator axis.
  const std::uint64_t s0 = result.at(0, 0, 0).mix_seed;
  const std::uint64_t s1 = result.at(0, 0, 2).mix_seed;
  std::cout << "\nmix_seed shared across policies: "
            << (s0 == s1 ? "yes" : "NO") << "\n";

  // 4. The long-form per-cell CSV (one row per cell) feeds plotting:
  exp::emit_campaign("example campaign", result, "example_campaign");
  return 0;
}
