// Related-work comparison (§2) under the dynamic interference model
// (DESIGN.md "Dynamic interference"), three ways:
//
//   isolation   — the interference-free policy of Pollard et al.: the
//                 exclusive allocator guarantees no two jobs share a leaf
//                 switch, so nothing ever degrades, but jobs queue for
//                 whole leaves;
//   contention-aware — the paper's allocators place for low Eq. 6 cost but
//                 admit co-location, so co-located communication load
//                 inflates runtimes at alpha > 0;
//   colocation  — QueuePolicy::kColocation on top of the same allocators:
//                 light loads pack first and admission defers a job while
//                 the external load on its prospective leaves exceeds
//                 coloc_max_external.
//
// The paper's §2 critique is that full isolation "negatively impact[s] the
// wait time, which has to be compensated by possible speedups in execution
// times". The dynamic model makes both sides of that trade measurable in
// one table: exclusive minimizes exec hours but pays wait hours; the
// colocation gate sits between. A second grid sweeps the interference
// coefficient alpha across allocators (the campaign variant axis) to show
// how the trade-off shifts with interference strength.
//
// Writes BENCH_interference.json at the CWD (run from the repo root).
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/emit.hpp"
#include "host_info.hpp"
#include "metrics/extended.hpp"
#include "metrics/summary.hpp"
#include "util/json.hpp"

namespace {
using namespace commsched;

// The admission threshold is a workload parameter: with 90% of jobs at comm
// fraction 0.8 the steady-state external load on a busy leaf is ~0.8 x its
// fill fraction, so the library default of 0.25 (tuned for mixed logs)
// degenerates to near-exclusive queueing here. 0.6 admits co-location up to
// ~75% leaf fill and gates only the worst antagonist pile-ups.
constexpr double kColocGate = 0.6;

SchedOptions dynamic_options(double alpha, QueuePolicy policy) {
  SchedOptions o;
  o.degradation.enabled = true;
  o.degradation.alpha = alpha;
  o.queue_policy = policy;
  o.coloc_max_external = kColocGate;
  return o;
}

std::string row_json(const exp::CellResult& c, double slowdown_mean) {
  const RunSummary& s = c.summary;
  return "{\"regime\": " + json_quote(c.variant) +
         ", \"allocator\": " + json_quote(c.allocator) +
         ", \"exec_hours\": " + json_number(s.total_exec_hours) +
         ", \"wait_hours\": " + json_number(s.total_wait_hours) +
         ", \"avg_turnaround_hours\": " + json_number(s.avg_turnaround_hours) +
         ", \"mean_bounded_slowdown\": " + json_number(slowdown_mean) +
         ", \"makespan_hours\": " + json_number(s.makespan_hours) + "}";
}

// Grid 2: interference-sensitivity sweep — alpha x allocator, FIFO vs the
// colocation gate, default-allocator family only.
exp::CampaignSpec alpha_sweep_spec() {
  exp::CampaignSpec sweep;
  sweep.name = "interference_alpha";
  sweep.machines.push_back(exp::paper_machine("Theta"));
  sweep.mixes.push_back(uniform_mix(Pattern::kRecursiveHalvingVD, 0.9, 0.8));
  sweep.allocators = {AllocatorKind::kDefault, AllocatorKind::kBalanced,
                      AllocatorKind::kAdaptive};
  for (const double alpha : {0.5, 1.0, 2.0, 4.0}) {
    const std::string tag = "a" + cell(alpha, 1);
    sweep.variants.push_back(
        {tag + "/fifo", dynamic_options(alpha, QueuePolicy::kFifo)});
    sweep.variants.push_back(
        {tag + "/coloc", dynamic_options(alpha, QueuePolicy::kColocation)});
  }
  sweep.variants.erase(sweep.variants.begin());  // drop the default "base"
  return sweep;
}
}  // namespace

int main() {
  // --- Grid 1: the three regimes, all evaluated under alpha = 1 dynamics
  // so isolation's zero co-location actually buys exec time back. ---
  exp::CampaignSpec spec;
  spec.name = "related_work";
  spec.machines.push_back(exp::paper_machine("Theta"));
  spec.mixes.push_back(uniform_mix(Pattern::kRecursiveHalvingVD, 0.9, 0.8));
  spec.allocators = {AllocatorKind::kDefault, AllocatorKind::kAdaptive,
                     AllocatorKind::kExclusive};
  spec.variants = {
      {"static", SchedOptions{}},
      {"dynamic", dynamic_options(1.0, QueuePolicy::kFifo)},
      {"coloc", dynamic_options(1.0, QueuePolicy::kColocation)},
  };

  exp::CampaignRunner runner(std::move(spec));
  const exp::CampaignResult result = runner.run();
  const exp::CampaignSpec& grid = runner.spec();
  if (exp::emit_shard_slice(grid, "Related work — three regimes", result,
                            "related_work_cells")) {
    exp::CampaignRunner sweep_runner(alpha_sweep_spec());
    const exp::CampaignResult sweep_result = sweep_runner.run();
    exp::emit_shard_slice(sweep_runner.spec(), "Interference sensitivity",
                          sweep_result, "interference_alpha_cells");
    return 0;
  }

  std::vector<std::string> three_way_rows;
  TextTable table;
  table.set_header({"regime", "allocator", "exec (h)", "wait (h)",
                    "avg turnaround (h)", "mean bounded slowdown",
                    "makespan (h)"});
  for (std::size_t v = 0; v < grid.variants.size(); ++v) {
    for (std::size_t a = 0; a < grid.allocators.size(); ++a) {
      const exp::CellResult& c = result.at(0, 0, a, 0, v);
      const RunSummary& s = c.summary;
      const DistSummary slow = slowdown_summary(c.sim);
      table.add_row({c.variant, s.allocator, cell(s.total_exec_hours, 1),
                     cell(s.total_wait_hours, 1),
                     cell(s.avg_turnaround_hours, 2), cell(slow.mean, 2),
                     cell(s.makespan_hours, 1)});
      three_way_rows.push_back(row_json(c, slow.mean));
    }
  }
  exp::emit(
      "Related work — interference-free (exclusive) vs contention-aware vs "
      "colocation policy (Theta, RHVD, 90% comm, alpha=1)",
      table, "related_work");

  exp::CampaignRunner sweep_runner(alpha_sweep_spec());
  const exp::CampaignResult sweep_result = sweep_runner.run();
  const exp::CampaignSpec& sweep_grid = sweep_runner.spec();

  std::vector<std::string> sweep_rows;
  TextTable alpha_table;
  alpha_table.set_header({"variant", "allocator", "exec (h)", "wait (h)",
                          "avg turnaround (h)", "makespan (h)"});
  for (std::size_t v = 0; v < sweep_grid.variants.size(); ++v) {
    for (std::size_t a = 0; a < sweep_grid.allocators.size(); ++a) {
      const exp::CellResult& c = sweep_result.at(0, 0, a, 0, v);
      const RunSummary& s = c.summary;
      const DistSummary slow = slowdown_summary(c.sim);
      alpha_table.add_row({c.variant, s.allocator, cell(s.total_exec_hours, 1),
                           cell(s.total_wait_hours, 1),
                           cell(s.avg_turnaround_hours, 2),
                           cell(s.makespan_hours, 1)});
      sweep_rows.push_back(row_json(c, slow.mean));
    }
  }
  exp::emit(
      "Interference sensitivity — alpha sweep x allocator, FIFO vs "
      "colocation gate (Theta, RHVD, 90% comm)",
      alpha_table, "related_work_alpha");

  std::ofstream json("BENCH_interference.json");
  if (!json) {
    std::cerr << "cannot open BENCH_interference.json (run from the repo "
                 "root)\n";
    return 1;
  }
  json << "{\n  \"bench\": \"interference\",\n"
       << "  \"host\": \"" << cpu_model() << "\",\n"
       << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"commit\": \"" << source_commit() << "\",\n"
       << "  \"machine\": \"Theta\",\n"
       << "  \"mix\": \"RHVD, 90% comm-intensive, comm fraction 0.8\",\n"
       << "  \"model\": \"dynamic leaf-load degradation "
          "(core/degradation_model), factor = 1 + alpha * intensity * "
          "external\",\n"
       << "  \"three_way\": [\n";
  for (std::size_t i = 0; i < three_way_rows.size(); ++i)
    json << "    " << three_way_rows[i]
         << (i + 1 < three_way_rows.size() ? ",\n" : "\n");
  json << "  ],\n  \"alpha_sweep\": [\n";
  for (std::size_t i = 0; i < sweep_rows.size(); ++i)
    json << "    " << sweep_rows[i]
         << (i + 1 < sweep_rows.size() ? ",\n" : "\n");
  json << "  ]\n}\n";
  std::cout << "wrote BENCH_interference.json\n"
            << "Expected shape (paper §2): exclusive minimizes exec hours "
               "but\npays wait hours; the colocation gate sits between.\n";
  return 0;
}
