// Figure 8 reproduction: communication cost (Eq. 6) of the allocations,
// binned by job node count, for all three logs under the binomial pattern
// with 90% communication-intensive jobs — one sub-plot per log, one series
// per policy.  Also §6.4's text numbers: the average per-pattern cost
// reduction (RD / RHVD / binomial) per log.
//
// One campaign covers both: machines × {RD, RHVD, binomial} × the four
// policies. The binomial cells' per-job series feed the figure's node-range
// bins; every cell's summary feeds the text numbers.
//
// Shape targets: every proposed policy prices at or below default; balanced
// and adaptive cut more than greedy.
#include <string>
#include <utility>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/emit.hpp"
#include "metrics/summary.hpp"

namespace {
using namespace commsched;

constexpr std::size_t kBinomialMix = 2;  // index into the mixes axis below

int max_exp_for(const std::string& machine) {
  if (machine == "Theta") return 9;
  if (machine == "Mira") return 14;
  return 15;  // Intrepid
}

int min_exp_for(const std::string& machine) {
  if (machine == "Theta") return 5;
  if (machine == "Mira") return 9;
  return 6;
}
}  // namespace

int main() {
  exp::CampaignSpec spec;
  spec.name = "fig8";
  spec.machines = exp::paper_machines();
  for (const Pattern pattern :
       {Pattern::kRecursiveDoubling, Pattern::kRecursiveHalvingVD,
        Pattern::kBinomial})
    spec.mixes.push_back(uniform_mix(pattern, 0.9, 0.8));

  exp::CampaignRunner runner(std::move(spec));
  const exp::CampaignResult result = runner.run();
  if (exp::emit_shard_slice(runner.spec(),
                            "Figure 8 — per-cell campaign summary", result,
                            "fig8_cells"))
    return 0;
  const exp::CampaignSpec& grid = runner.spec();

  TextTable bins_table;
  bins_table.set_header({"Log", "node-range", "jobs", "cost(def)",
                         "cost(greedy)", "cost(bal)", "cost(adap)"});
  TextTable reductions;
  reductions.set_header(
      {"Log", "Pattern", "avg cost reduction % (over proposed algorithms)"});

  for (std::size_t m = 0; m < grid.machines.size(); ++m) {
    const std::string& name = grid.machines[m].name;

    // --- The figure: binomial, cost-by-node-range, per policy -------------
    const auto edges =
        power_of_two_bin_edges(min_exp_for(name), max_exp_for(name), 2);
    std::vector<std::vector<double>> means;
    for (std::size_t a = 0; a < 4; ++a)
      means.push_back(
          average_cost_by_node_bin(result.at(m, kBinomialMix, a).sim, edges));
    const auto counts =
        job_count_by_node_bin(result.at(m, kBinomialMix, 0).sim, edges);
    for (std::size_t b = 0; b + 1 < edges.size(); ++b) {
      if (counts[b] == 0) continue;
      const std::string range = cell(edges[b], 0) + "-" + cell(edges[b + 1], 0);
      bins_table.add_row({name, range, std::to_string(counts[b]),
                          cell(means[0][b], 1), cell(means[1][b], 1),
                          cell(means[2][b], 1), cell(means[3][b], 1)});
    }

    // --- §6.4 text: per-pattern average cost reduction ---------------------
    for (std::size_t x = 0; x < grid.mixes.size(); ++x) {
      const double def = result.at(m, x, 0).summary.total_cost;
      double sum = 0.0;
      for (std::size_t a = 1; a < 4; ++a)
        sum += improvement_percent(def, result.at(m, x, a).summary.total_cost);
      reductions.add_row({name, grid.mixes[x].name, cell(sum / 3.0, 2)});
    }
  }

  exp::emit(
      "Figure 8 — communication cost by node range (binomial, 90% comm)",
      bins_table, "fig8_cost_bins");
  exp::emit(
      "Figure 8 / §6.4 — average communication-cost reduction per pattern",
      reductions, "fig8_cost_reductions");
  exp::emit_campaign("Figure 8 — per-cell campaign summary", result,
                     "fig8_cells");
  return 0;
}
