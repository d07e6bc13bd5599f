// Figure 9 reproduction: average turnaround time (hours) and node-hours on
// the Intrepid log with the RHVD pattern, sweeping the share of
// communication-intensive jobs over {30%, 60%, 90%} — one bar group per
// policy; plus the 90%-case turnaround reductions the paper quotes for
// Theta and Mira.
//
// One campaign: all three machines × the three comm-share mixes × four
// policies, with a filter keeping the 30%/60% sweeps Intrepid-only.
//
// Shape targets: all proposed policies <= default; gains grow with the
// communication share.
#include <string>
#include <utility>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/emit.hpp"
#include "metrics/summary.hpp"

namespace {
using namespace commsched;

constexpr double kShares[] = {0.3, 0.6, 0.9};
constexpr std::size_t kFullShareMix = 2;  // the 90% mix index
}

int main() {
  exp::CampaignSpec spec;
  spec.name = "fig9";
  spec.machines = exp::paper_machines();
  for (const double percent : kShares) {
    MixSpec mix = uniform_mix(Pattern::kRecursiveHalvingVD, percent, 0.8);
    mix.name += " " + cell(percent * 100, 0) + "% comm";
    spec.mixes.push_back(std::move(mix));
  }
  // The sweep is Intrepid's sub-figure; Theta/Mira only contribute the
  // paper's 90%-case text numbers.
  spec.filter = [](const exp::CampaignSpec& s, const exp::CellCoord& c) {
    return s.machines[c.machine].name == "Intrepid" ||
           c.mix == kFullShareMix;
  };

  exp::CampaignRunner runner(std::move(spec));
  const exp::CampaignResult result = runner.run();
  if (exp::emit_shard_slice(runner.spec(),
                            "Figure 9 — per-cell campaign summary", result,
                            "fig9_cells"))
    return 0;
  const exp::CampaignSpec& grid = runner.spec();

  TextTable table;
  table.set_header({"comm %", "metric", "default", "greedy", "balanced",
                    "adaptive"});
  for (std::size_t x = 0; x < grid.mixes.size(); ++x) {
    std::vector<const RunSummary*> s;
    for (std::size_t a = 0; a < 4; ++a)
      s.push_back(&result.at(0, x, a).summary);  // machine 0 = Intrepid
    const std::string label = cell(kShares[x] * 100, 0);
    table.add_row({label, "avg turnaround (h)",
                   cell(s[0]->avg_turnaround_hours, 2),
                   cell(s[1]->avg_turnaround_hours, 2),
                   cell(s[2]->avg_turnaround_hours, 2),
                   cell(s[3]->avg_turnaround_hours, 2)});
    table.add_row({label, "avg node-hours", cell(s[0]->avg_node_hours, 1),
                   cell(s[1]->avg_node_hours, 1), cell(s[2]->avg_node_hours, 1),
                   cell(s[3]->avg_node_hours, 1)});
  }

  // §6.5 text: 90%-case turnaround reductions for Theta and Mira, per
  // policy (the paper quotes the cross-policy average; the split shows
  // greedy's Mira regression explicitly).
  TextTable others;
  others.set_header({"Log", "greedy %", "balanced %", "adaptive %", "avg %"});
  for (std::size_t m = 1; m < grid.machines.size(); ++m) {
    const double def =
        result.at(m, kFullShareMix, 0).summary.avg_turnaround_hours;
    std::vector<double> gains;
    for (std::size_t a = 1; a < 4; ++a)
      gains.push_back(improvement_percent(
          def, result.at(m, kFullShareMix, a).summary.avg_turnaround_hours));
    others.add_row({grid.machines[m].name, cell(gains[0], 1),
                    cell(gains[1], 1), cell(gains[2], 1),
                    cell((gains[0] + gains[1] + gains[2]) / 3.0, 1)});
  }

  exp::emit(
      "Figure 9 — turnaround and node-hours vs comm-job share (Intrepid, RHVD)",
      table, "fig9_turnaround");
  exp::emit(
      "Figure 9 / §6.5 — turnaround reductions for Theta and Mira (90%)",
      others, "fig9_other_logs");
  exp::emit_campaign("Figure 9 — per-cell campaign summary", result,
                     "fig9_cells");
  return 0;
}
