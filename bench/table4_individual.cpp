// Table 4 reproduction: individual runs — 200 randomly selected jobs per
// log, each evaluated against the *same* partially occupied cluster state
// under all four policies (the paper's fair-comparison protocol, §6.3).
// Reports the average % execution-time improvement over default for RHVD
// and RD.
//
// Individual runs evaluate all four policies inside run_individual, so the
// parallel axis here is the (machine, pattern) combination: the six combos
// run concurrently through run_indexed (util/parallel.hpp) and the rows
// are reduced in combo order, exactly like campaign cells.
//
// Shape target: every proposed policy is >= default on average, with
// balanced/adaptive >= greedy.
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/emit.hpp"
#include "metrics/summary.hpp"
#include "sched/individual.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {
using namespace commsched;

constexpr int kProbes = 200;
constexpr Pattern kPatterns[] = {Pattern::kRecursiveHalvingVD,
                                 Pattern::kRecursiveDoubling};

struct ComboRow {
  std::vector<std::string> cells;
};
}  // namespace

int main() {
  const std::vector<exp::MachineCase> machines = exp::paper_machines();
  const std::size_t combos = machines.size() * std::size(kPatterns);

  const std::function<ComboRow(std::size_t)> evaluate =
      [&machines](std::size_t combo) {
        const exp::MachineCase& machine =
            machines[combo / std::size(kPatterns)];
        const Pattern pattern = kPatterns[combo % std::size(kPatterns)];

        // 200 random jobs from the log (paper §6.3), decorated with the
        // pattern under test. Seeds hash the combo labels (never the loop
        // index), matching the campaign engine's derivation rule.
        const MixSpec mix = uniform_mix(pattern, 0.9, 0.8);
        const std::uint64_t seed =
            exp::derive_mix_seed(exp::base_seed(), machine.name, mix.name);
        JobLog probes = machine.base_log;
        apply_mix(probes, mix, seed);
        Rng rng(seed + 1);
        rng.shuffle(probes);
        if (probes.size() > kProbes) probes.resize(kProbes);

        IndividualOptions opts;
        opts.occupancy = 0.5;
        opts.seed = seed + 2;
        const auto outcomes = run_individual(machine.tree, probes, opts);

        double greedy = 0.0, balanced = 0.0, adaptive = 0.0;
        int comm = 0;
        for (const auto& o : outcomes) {
          if (!o.comm_intensive) continue;
          ++comm;
          greedy += o.improvement_percent(AllocatorKind::kGreedy);
          balanced += o.improvement_percent(AllocatorKind::kBalanced);
          adaptive += o.improvement_percent(AllocatorKind::kAdaptive);
        }
        const double n = comm > 0 ? static_cast<double>(comm) : 1.0;
        return ComboRow{{machine.name, pattern_name(pattern),
                         cell(greedy / n, 2), cell(balanced / n, 2),
                         cell(adaptive / n, 2),
                         std::to_string(outcomes.size())}};
      };

  const std::vector<ComboRow> rows =
      run_indexed<ComboRow>(/*threads=*/0, combos, evaluate);

  TextTable table;
  table.set_header({"Log", "Pattern", "Greedy %", "Balanced %", "Adaptive %",
                    "probes"});
  for (const ComboRow& row : rows) table.add_row(row.cells);

  exp::emit(
      "Table 4 — avg % execution-time improvement, individual runs",
      table, "table4_individual");
  return 0;
}
