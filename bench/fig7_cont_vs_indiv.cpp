// Figure 7 reproduction: per-job execution times for 200 Theta jobs using
// the recursive doubling/halving pattern, under all four policies — once in
// continuous runs (left sub-graph, a four-cell campaign through src/exp)
// and once in individual runs (right sub-graph).  The full series goes to
// CSV; stdout carries decile summaries plus the maximum observed reductions
// (paper: up to 70% continuous, 15% individual for Theta).
#include <algorithm>
#include <iostream>
#include <utility>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/emit.hpp"
#include "metrics/summary.hpp"
#include "sched/individual.hpp"
#include "util/stats.hpp"

namespace {
using namespace commsched;

constexpr int kJobs = 200;
}

int main() {
  exp::CampaignSpec spec;
  spec.name = "fig7";
  spec.machines.push_back(exp::paper_machine("Theta", kJobs));
  spec.mixes.push_back(uniform_mix(Pattern::kRecursiveDoubling, 0.9, 0.8));

  exp::CampaignRunner runner(std::move(spec));
  const exp::CampaignResult result = runner.run();
  if (exp::emit_shard_slice(runner.spec(), "Figure 7 — continuous campaign",
                            result, "fig7_cells"))
    return 0;
  const exp::MachineCase& machine = runner.spec().machines[0];
  const MixSpec& mix = runner.spec().mixes[0];

  // --- Continuous runs: the four campaign cells ---------------------------
  std::vector<const SimResult*> cont;
  for (std::size_t a = 0; a < 4; ++a) cont.push_back(&result.at(0, 0, a).sim);

  // --- Individual runs (same decorated log as the campaign cells) ---------
  JobLog probes = machine.base_log;
  apply_mix(probes, mix,
            exp::derive_mix_seed(exp::base_seed(), machine.name, mix.name));
  IndividualOptions iopts;
  iopts.occupancy = 0.5;
  iopts.seed = exp::base_seed() + 41;
  const auto indiv = run_individual(machine.tree, probes, iopts);

  // --- CSV with both series ----------------------------------------------
  TextTable series;
  series.set_header({"job", "mode", "default_s", "greedy_s", "balanced_s",
                     "adaptive_s"});
  for (std::size_t i = 0; i < cont[0]->jobs.size(); ++i)
    series.add_row({std::to_string(cont[0]->jobs[i].id), "continuous",
                    cell(cont[0]->jobs[i].actual_runtime, 1),
                    cell(cont[1]->jobs[i].actual_runtime, 1),
                    cell(cont[2]->jobs[i].actual_runtime, 1),
                    cell(cont[3]->jobs[i].actual_runtime, 1)});
  for (const auto& o : indiv)
    series.add_row({std::to_string(o.id), "individual", cell(o.exec_time[0], 1),
                    cell(o.exec_time[1], 1), cell(o.exec_time[2], 1),
                    cell(o.exec_time[3], 1)});
  const std::string path = "bench_out/fig7_series.csv";
  std::cout << (series.write_csv(path) ? "  [csv] " + path
                                       : "  [csv] write failed")
            << "\n";

  // --- Summary: max per-job reduction in each mode -------------------------
  const auto max_reduction_cont = [&](std::size_t kind) {
    double best = 0.0;
    for (std::size_t i = 0; i < cont[0]->jobs.size(); ++i) {
      const double base = cont[0]->jobs[i].actual_runtime;
      const double ours = cont[kind]->jobs[i].actual_runtime;
      if (base > 0.0) best = std::max(best, (base - ours) / base * 100.0);
    }
    return best;
  };
  const auto max_reduction_indiv = [&](AllocatorKind kind) {
    double best = 0.0;
    for (const auto& o : indiv)
      best = std::max(best, o.improvement_percent(kind));
    return best;
  };

  TextTable summary;
  summary.set_header({"mode", "metric", "greedy", "balanced", "adaptive"});
  summary.add_row({"continuous", "max per-job exec reduction %",
                   cell(max_reduction_cont(1), 1), cell(max_reduction_cont(2), 1),
                   cell(max_reduction_cont(3), 1)});
  summary.add_row({"individual", "max per-job exec reduction %",
                   cell(max_reduction_indiv(AllocatorKind::kGreedy), 1),
                   cell(max_reduction_indiv(AllocatorKind::kBalanced), 1),
                   cell(max_reduction_indiv(AllocatorKind::kAdaptive), 1)});

  // Decile view of the continuous default-vs-adaptive series — the shape a
  // reader compares against the figure.
  std::vector<double> def_series, adap_series;
  for (const auto& j : cont[0]->jobs) def_series.push_back(j.actual_runtime);
  for (const auto& j : cont[3]->jobs) adap_series.push_back(j.actual_runtime);
  for (const double p : {10.0, 50.0, 90.0}) {
    summary.add_row({"continuous",
                     "p" + std::to_string(static_cast<int>(p)) + " exec (s)",
                     "-", cell(percentile(def_series, p), 0) + " (default)",
                     cell(percentile(adap_series, p), 0) + " (adaptive)"});
  }
  exp::emit(
      "Figure 7 — continuous vs individual runs, Theta, RD pattern",
      summary, "fig7_summary");
  return 0;
}
