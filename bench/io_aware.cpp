// §7 future work made runnable: I/O-aware allocation on a mixed
// communication + I/O workload (Theta log; 90% comm jobs at 50% comm time,
// 40% I/O jobs at 30% I/O time). Compares stock SLURM, the paper's adaptive
// policy (communication-only) and the combined io_aware policy on execution
// time, waits, and both cost metrics.
//
// Expected shape: io_aware's per-job weighted score (comm ratio x comm
// share + I/O ratio x I/O share) avoids the placements where packing for
// communication costs more in I/O stacking than it gains, so it ends at or
// below adaptive on execution, wait and turnaround time. The aggregate
// I/O-cost column shows why the trade-off is real: both job-aware policies
// pack communication-heavy jobs onto few leaves, which *concentrates* those
// jobs' I/O relative to default's fragmented placements — io_aware pays
// that price only where the runtime score says it is worth it.
#include <utility>

#include "exp/campaign.hpp"
#include "exp/emit.hpp"
#include "metrics/summary.hpp"

namespace {
using namespace commsched;

double total_io_cost(const SimResult& r) {
  double total = 0.0;
  for (const auto& j : r.jobs) total += j.io_cost;
  return total;
}
}  // namespace

int main() {
  MixSpec mix = uniform_mix(Pattern::kRecursiveHalvingVD, 0.9, 0.5);
  mix.io_percent = 0.4;
  mix.io_fraction = 0.3;

  exp::CampaignSpec spec;
  spec.name = "io_aware";
  spec.machines.push_back(exp::paper_machine("Theta"));
  spec.mixes.push_back(std::move(mix));
  spec.allocators = {AllocatorKind::kDefault, AllocatorKind::kAdaptive,
                     AllocatorKind::kIoAware};

  exp::CampaignRunner runner(std::move(spec));
  const exp::CampaignResult result = runner.run();
  if (exp::emit_shard_slice(runner.spec(), "I/O-aware campaign", result,
                            "io_aware_cells"))
    return 0;
  const exp::CampaignSpec& grid = runner.spec();

  TextTable table;
  table.set_header({"policy", "exec (h)", "wait (h)", "avg turnaround (h)",
                    "total Eq.6 cost", "total I/O cost"});
  for (std::size_t a = 0; a < grid.allocators.size(); ++a) {
    const exp::CellResult& c = result.at(0, 0, a);
    const RunSummary& s = c.summary;
    table.add_row({s.allocator, cell(s.total_exec_hours, 1),
                   cell(s.total_wait_hours, 1),
                   cell(s.avg_turnaround_hours, 2), cell(s.total_cost, 0),
                   cell(total_io_cost(c.sim), 0)});
  }
  exp::emit(
      "§7 extension — I/O-aware allocation on a mixed comm+I/O workload "
      "(Theta)",
      table, "io_aware");
  return 0;
}
