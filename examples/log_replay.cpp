// Replay a supercomputer job log through the scheduler simulator under all
// four allocation policies and print the paper's evaluation metrics.
//
//   $ ./log_replay [--machine theta|intrepid|mira] [--jobs N]
//                  [--pattern RD|RHVD|Binomial|Ring|Alltoall] [--comm-percent P]
//                  [--comm-fraction F] [--swf FILE --cores-per-node C]
//                  [--seed S]
//
// Without --swf a synthetic log matching the machine's profile is generated;
// with --swf a real Parallel Workloads Archive log drives the replay.
#include <iostream>
#include <string>
#include <vector>

#include "metrics/extended.hpp"
#include "metrics/summary.hpp"
#include "sched/simulator.hpp"
#include "topology/builders.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/mixes.hpp"
#include "workload/stats.hpp"
#include "workload/swf.hpp"
#include "workload/synthetic.hpp"

using namespace commsched;

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: log_replay [--machine theta|intrepid|mira] [--jobs N]\n"
            << "                  [--pattern RD|RHVD|Binomial|Ring|Alltoall]\n"
            << "                  [--comm-percent P] [--comm-fraction F]\n"
            << "                  [--swf FILE --cores-per-node C] [--seed S]\n";
  std::exit(2);
}

int count_arg(const std::string& flag, const std::string& value) {
  const auto v = parse_int_at_least(value, 1);
  if (!v) usage(flag + " needs a positive integer, got '" + value + "'");
  return *v;
}

double fraction_arg(const std::string& flag, const std::string& value) {
  const auto v = parse_double(value);
  if (!v || !(*v >= 0.0 && *v <= 1.0))
    usage(flag + " needs a fraction in [0, 1], got '" + value + "'");
  return *v;
}

Pattern parse_pattern(const std::string& s) {
  if (s == "RD") return Pattern::kRecursiveDoubling;
  if (s == "RHVD") return Pattern::kRecursiveHalvingVD;
  if (s == "Binomial") return Pattern::kBinomial;
  if (s == "Ring") return Pattern::kRing;
  if (s == "Alltoall") return Pattern::kPairwiseAlltoall;
  usage("unknown pattern '" + s + "'");
}

}  // namespace

int main(int argc, char** argv) {
  std::string machine = "theta";
  std::string swf_path;
  int jobs = 500;
  int cores_per_node = 1;
  Pattern pattern = Pattern::kRecursiveHalvingVD;
  double comm_percent = 0.9;
  double comm_fraction = 0.5;
  std::uint64_t seed = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--machine") machine = next();
    else if (arg == "--jobs") jobs = count_arg(arg, next());
    else if (arg == "--pattern") pattern = parse_pattern(next());
    else if (arg == "--comm-percent") comm_percent = fraction_arg(arg, next());
    else if (arg == "--comm-fraction")
      comm_fraction = fraction_arg(arg, next());
    else if (arg == "--swf") swf_path = next();
    else if (arg == "--cores-per-node") cores_per_node = count_arg(arg, next());
    else if (arg == "--seed") {
      const std::string value = next();
      const auto v = parse_uint64(value);
      if (!v) usage("--seed needs an unsigned integer, got '" + value + "'");
      seed = *v;
    } else usage("unknown argument '" + arg + "'");
  }

  const Tree tree = make_machine(machine);
  JobLog log;
  if (!swf_path.empty()) {
    SwfOptions opts;
    opts.cores_per_node = cores_per_node;
    opts.max_jobs = static_cast<std::size_t>(jobs);
    log = filter_power_of_two(load_swf(swf_path, opts));
    std::cout << "Loaded " << log.size() << " power-of-two jobs from "
              << swf_path << "\n";
  } else {
    LogProfile profile = machine == "intrepid" ? intrepid_profile()
                         : machine == "mira"   ? mira_profile()
                                               : theta_profile();
    log = filter_power_of_two(generate_log(profile, jobs, seed));
    std::cout << "Generated " << log.size() << " synthetic jobs ("
              << profile.name << " profile)\n";
  }
  apply_mix(log, uniform_mix(pattern, comm_percent, comm_fraction), seed + 1);
  if (pattern == Pattern::kPairwiseAlltoall)
    for (const auto& j : log)
      if (j.num_nodes > 1024)
        usage("Alltoall schedules are capped at 1024 ranks; this log has a " +
              std::to_string(j.num_nodes) + "-node job (try --machine theta)");

  std::cout << "\n" << format_log_stats(machine, compute_log_stats(log, tree.node_count()))
            << "\n";

  TextTable table;
  table.set_header({"policy", "exec (h)", "wait (h)", "avg turnaround (h)",
                    "node-hours", "avg Eq.6 cost", "mean slowdown",
                    "utilization %", "makespan (h)"});
  for (const AllocatorKind kind : kAllAllocatorKinds) {
    SchedOptions options;
    options.allocator = kind;
    const SimResult result = run_continuous(tree, log, options);
    const RunSummary s = summarize(result);
    table.add_row({s.allocator, cell(s.total_exec_hours, 1),
                   cell(s.total_wait_hours, 1),
                   cell(s.avg_turnaround_hours, 2),
                   cell(s.total_node_hours, 0), cell(s.avg_cost, 1),
                   cell(slowdown_summary(result).mean, 2),
                   cell(average_utilization(result, tree.node_count()) * 100, 1),
                   cell(s.makespan_hours, 1)});
    std::cout << "  ran " << s.allocator << "\n";
  }
  std::cout << "\nContinuous replay of " << log.size() << " jobs on "
            << machine << " (" << pattern_name(pattern) << ", "
            << comm_percent * 100 << "% comm jobs):\n\n"
            << table.render(2);
  return 0;
}
