// Figure 6 reproduction: % reduction in total execution time for the §6.2
// experiment sets A-E (compute/communication ratios and pattern blends,
// D/E being CMC2D-like) on the Theta log, per proposed policy; plus the
// per-log average improvements the paper quotes in the text for Intrepid
// and Mira.
//
// The whole grid (machines × sets × allocators, plus the Theta-only
// alltoall extension) is one declarative campaign executed by the parallel
// engine in src/exp/; this file only builds the spec and shapes the paper's
// tables from the cells.
//
// Shape targets: gains grow with the communication share (A < B < C, D < E),
// and the RHVD-heavy sets B/C beat the RD+binomial sets D/E at equal
// communication share.
#include <string>
#include <utility>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/emit.hpp"
#include "metrics/summary.hpp"

namespace {
using namespace commsched;

constexpr std::size_t kNumSets = 5;  // A-E; index 5 is the extension mix
}

int main() {
  exp::CampaignSpec spec;
  spec.name = "fig6";
  spec.machines = exp::paper_machines();
  // The paper's four policies plus our search-based extension as a fifth
  // column (sa anneals from the greedy/balanced seeds, so its gains bound
  // the constructive policies from above).
  spec.allocators = {AllocatorKind::kDefault, AllocatorKind::kGreedy,
                     AllocatorKind::kBalanced, AllocatorKind::kAdaptive,
                     AllocatorKind::kSa};
  for (const char set : {'A', 'B', 'C', 'D', 'E'})
    spec.mixes.push_back(experiment_set(set));
  // Extension mix (ours): an MPI_Alltoall-dominated mix — the FFTW/CPMD
  // workload the paper's introduction motivates but does not evaluate.
  // Theta's 512-node cap fits the alltoall schedule limit, so the filter
  // runs it on Theta only.
  MixSpec extension = uniform_mix(Pattern::kPairwiseAlltoall, 0.9, 0.7);
  extension.name = "X (30% compute, 70% Alltoall) [extension]";
  spec.mixes.push_back(std::move(extension));
  spec.filter = [](const exp::CampaignSpec& s, const exp::CellCoord& c) {
    return c.mix < kNumSets || s.machines[c.machine].name == "Theta";
  };

  exp::CampaignRunner runner(std::move(spec));
  const exp::CampaignResult result = runner.run();
  if (exp::emit_shard_slice(runner.spec(),
                            "Figure 6 — per-cell campaign summary", result,
                            "fig6_cells"))
    return 0;
  const exp::CampaignSpec& grid = runner.spec();

  TextTable theta_table;
  theta_table.set_header({"Set", "Mix", "Impr%(greedy)", "Impr%(bal)",
                          "Impr%(adap)", "Impr%(sa)", "Impr%(avg)"});
  TextTable others;
  others.set_header({"Log", "Set", "Impr%(avg over algorithms)"});

  // One comparison group per admitted (machine, mix): default vs proposed.
  for (std::size_t m = 0; m < grid.machines.size(); ++m) {
    for (std::size_t x = 0; x < grid.mixes.size(); ++x) {
      const exp::CellResult* def = result.find(m, x, 0);
      if (def == nullptr) continue;  // filtered out
      std::vector<double> gains;
      for (std::size_t a = 1; a < 5; ++a)
        gains.push_back(
            improvement_percent(def->summary.total_exec_hours,
                                result.at(m, x, a).summary.total_exec_hours));
      // The paper's quoted average stays over its three proposed policies;
      // the sa extension gets its own column.
      const double avg = (gains[0] + gains[1] + gains[2]) / 3.0;
      const std::string set_label =
          x < kNumSets ? std::string(1, static_cast<char>('A' + x)) : "X";
      if (def->machine == "Theta")
        theta_table.add_row({set_label, def->mix, cell(gains[0], 2),
                             cell(gains[1], 2), cell(gains[2], 2),
                             cell(gains[3], 2), cell(avg, 2)});
      else if (x < kNumSets)
        others.add_row({def->machine, set_label, cell(avg, 2)});
    }
  }

  exp::emit(
      "Figure 6 — % execution-time reduction, experiment sets A-E, Theta",
      theta_table, "fig6_theta");
  exp::emit(
      "Figure 6 (text) — average improvements for Intrepid and Mira", others,
      "fig6_other_logs");
  exp::emit_campaign("Figure 6 — per-cell campaign summary", result,
                     "fig6_cells");
  return 0;
}
