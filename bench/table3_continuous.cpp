// Table 3 reproduction: continuous runs of the three job logs (Intrepid,
// Theta, Mira) with 90% communication-intensive jobs, for the RHVD and RD
// patterns, under default / greedy / balanced / adaptive allocation.
// Reports total execution hours and total wait hours per configuration,
// exactly the paper's layout, plus the derived improvement percentages.
// The 3 × 2 × 4 grid runs as one campaign through src/exp.
//
// Shape targets (paper §6.1): balanced and adaptive beat default everywhere;
// greedy helps Intrepid/Theta but can lose on Mira; RHVD gains exceed RD
// gains.
#include <utility>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/emit.hpp"
#include "metrics/summary.hpp"

namespace {
using namespace commsched;
}

int main() {
  exp::CampaignSpec spec;
  spec.name = "table3";
  spec.machines = exp::paper_machines();
  for (const Pattern pattern :
       {Pattern::kRecursiveHalvingVD, Pattern::kRecursiveDoubling})
    spec.mixes.push_back(uniform_mix(pattern, 0.9, 0.8));
  // Paper policies plus the search-based sa extension as a fifth column.
  spec.allocators = {AllocatorKind::kDefault, AllocatorKind::kGreedy,
                     AllocatorKind::kBalanced, AllocatorKind::kAdaptive,
                     AllocatorKind::kSa};

  exp::CampaignRunner runner(std::move(spec));
  const exp::CampaignResult result = runner.run();
  if (exp::emit_shard_slice(runner.spec(),
                            "Table 3 — per-cell campaign summary", result,
                            "table3_cells"))
    return 0;
  const exp::CampaignSpec& grid = runner.spec();

  TextTable table;
  table.set_header({"Log", "Pattern",
                    "Exec(def)", "Exec(greedy)", "Exec(bal)", "Exec(adap)",
                    "Exec(sa)",
                    "Wait(def)", "Wait(greedy)", "Wait(bal)", "Wait(adap)",
                    "Wait(sa)"});
  TextTable impr;
  impr.set_header({"Log", "Pattern", "ExecImpr%(greedy)", "ExecImpr%(bal)",
                   "ExecImpr%(adap)", "ExecImpr%(sa)", "WaitImpr%(greedy)",
                   "WaitImpr%(bal)", "WaitImpr%(adap)", "WaitImpr%(sa)"});

  for (std::size_t m = 0; m < grid.machines.size(); ++m) {
    for (std::size_t x = 0; x < grid.mixes.size(); ++x) {
      std::vector<const RunSummary*> s;
      for (std::size_t a = 0; a < 5; ++a)
        s.push_back(&result.at(m, x, a).summary);

      const RunSummary& d = *s[0];
      table.add_row({grid.machines[m].name, grid.mixes[x].name,
                     cell(d.total_exec_hours, 0),
                     cell(s[1]->total_exec_hours, 0),
                     cell(s[2]->total_exec_hours, 0),
                     cell(s[3]->total_exec_hours, 0),
                     cell(s[4]->total_exec_hours, 0),
                     cell(d.total_wait_hours, 0),
                     cell(s[1]->total_wait_hours, 0),
                     cell(s[2]->total_wait_hours, 0),
                     cell(s[3]->total_wait_hours, 0),
                     cell(s[4]->total_wait_hours, 0)});
      impr.add_row(
          {grid.machines[m].name, grid.mixes[x].name,
           cell(improvement_percent(d.total_exec_hours,
                                    s[1]->total_exec_hours), 1),
           cell(improvement_percent(d.total_exec_hours,
                                    s[2]->total_exec_hours), 1),
           cell(improvement_percent(d.total_exec_hours,
                                    s[3]->total_exec_hours), 1),
           cell(improvement_percent(d.total_exec_hours,
                                    s[4]->total_exec_hours), 1),
           cell(improvement_percent(d.total_wait_hours,
                                    s[1]->total_wait_hours), 1),
           cell(improvement_percent(d.total_wait_hours,
                                    s[2]->total_wait_hours), 1),
           cell(improvement_percent(d.total_wait_hours,
                                    s[3]->total_wait_hours), 1),
           cell(improvement_percent(d.total_wait_hours,
                                    s[4]->total_wait_hours), 1)});
    }
  }

  exp::emit(
      "Table 3 — execution and wait times (hours), continuous runs, 90% comm",
      table, "table3_hours");
  exp::emit(
      "Table 3 (derived) — % improvement over default", impr,
      "table3_improvements");
  exp::emit_campaign("Table 3 — per-cell campaign summary", result,
                     "table3_cells");
  return 0;
}
