// Campaign-engine scaling check: the Figure 6 grid (machines × experiment
// sets × policies) executed by the src/exp worker pool at 1 worker and at
// N workers (COMMSCHED_BENCH_THREADS, default 8), timing both and checking
// that the long-form per-cell CSV is bit-identical — the determinism
// contract the parity tests enforce, demonstrated at full grid size.
//
// Writes BENCH_campaign.json at the CWD (run from the repo root). The
// recorded speedup is honest wall-clock on the current machine; on a
// single-hardware-thread container the two timings are expected to tie, so
// the JSON also records the host, its nproc and the commit for
// interpretation.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/emit.hpp"
#include "host_info.hpp"
#include "metrics/summary.hpp"
#include "util/strings.hpp"

namespace {
using namespace commsched;

exp::CampaignSpec fig6_spec(std::vector<exp::MachineCase> machines,
                            int threads) {
  exp::CampaignSpec spec;
  spec.name = "campaign_speedup@" + std::to_string(threads);
  spec.machines = std::move(machines);
  for (const char set : {'A', 'B', 'C', 'D', 'E'})
    spec.mixes.push_back(experiment_set(set));
  spec.threads = threads;
  spec.quiet = true;
  return spec;
}

struct TimedRun {
  double seconds = 0.0;
  std::string csv;
  std::size_t cells = 0;
};

TimedRun timed_run(const std::vector<exp::MachineCase>& machines,
                   int threads) {
  exp::CampaignRunner runner(fig6_spec(machines, threads));
  const auto t0 = std::chrono::steady_clock::now();
  const exp::CampaignResult result = runner.run();
  const auto t1 = std::chrono::steady_clock::now();
  TimedRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.csv = exp::campaign_table(result).render_csv();
  r.cells = result.cells.size();
  return r;
}
}  // namespace

int main() {
  const int wide = [] {
    if (const char* v = std::getenv("COMMSCHED_BENCH_THREADS");
        v != nullptr && *v != '\0') {
      const auto parsed = parse_int(v);
      if (parsed && *parsed > 0) return static_cast<int>(*parsed);
    }
    return 8;
  }();
  const std::vector<exp::MachineCase> machines = exp::paper_machines();

  // Warm-up pass so page-cache and allocator effects do not bias the
  // single-worker baseline, then the two measured passes.
  (void)timed_run(machines, 1);
  const TimedRun serial = timed_run(machines, 1);
  const TimedRun parallel = timed_run(machines, wide);

  const bool identical = serial.csv == parallel.csv;
  const double speedup =
      parallel.seconds > 0.0 ? serial.seconds / parallel.seconds : 0.0;

  TextTable table;
  table.set_header({"workers", "cells", "wall (s)", "speedup",
                    "bit-identical CSV"});
  table.add_row({"1", std::to_string(serial.cells), cell(serial.seconds, 2),
                 "1.00", "-"});
  table.add_row({std::to_string(wide), std::to_string(parallel.cells),
                 cell(parallel.seconds, 2), cell(speedup, 2),
                 identical ? "yes" : "NO"});
  exp::emit("Campaign engine — Figure 6 grid, 1 worker vs " +
                std::to_string(wide),
            table, "campaign_speedup");

  std::ofstream json("BENCH_campaign.json");
  json << "{\n"
       << "  \"campaign\": \"fig6 grid (3 logs x sets A-E x 4 policies)\",\n"
       << "  \"host\": \"" << cpu_model() << "\",\n"
       << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"commit\": \"" << source_commit() << "\",\n"
       << "  \"cells\": " << serial.cells << ",\n"
       << "  \"threads_compared\": [1, " << wide << "],\n"
       << "  \"seconds_1_thread\": " << cell(serial.seconds, 3) << ",\n"
       << "  \"seconds_" << wide << "_threads\": "
       << cell(parallel.seconds, 3) << ",\n"
       << "  \"speedup\": " << cell(speedup, 3) << ",\n"
       << "  \"bit_identical_csv\": " << (identical ? "true" : "false")
       << ",\n"
       << "  \"note\": \"wall-clock on this machine; speedup tracks "
          "min(workers, nproc) because cells are "
          "embarrassingly parallel\"\n"
       << "}\n";
  if (!json) std::cerr << "could not write BENCH_campaign.json\n";
  std::cout << "  [json] BENCH_campaign.json\n";

  if (!identical) {
    std::cerr << "FAIL: per-cell CSV differs across thread counts\n";
    return 1;
  }
  return 0;
}
