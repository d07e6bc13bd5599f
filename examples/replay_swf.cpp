// Minimal SWF replay: load a raw Parallel Workloads Archive trace, clean it
// with the loader's robustness flags, run it through the simulator, and
// stream the scheduler's event trace as JSON lines — the three-stage
// loader -> simulator -> trace-sink pipeline in its smallest form.
//
//   $ ./replay_swf ../data/demo-raw-trace.swf ../data/demo-topology.conf
//   $ ./replay_swf trace.swf topo.conf --cores-per-node 16 --allocator balanced
//   $ ./replay_swf trace.swf topo.conf --trace events.jsonl
//
// For the full metrics/mix treatment (synthetic logs, comm decoration,
// paper tables), see log_replay.cpp; this example is the quick-start the
// README's "Replaying an SWF log" section walks through.
#include <fstream>
#include <iostream>
#include <string>

#include "core/allocator_factory.hpp"
#include "sched/simulator.hpp"
#include "sched/trace.hpp"
#include "topology/conf.hpp"
#include "util/strings.hpp"
#include "workload/swf.hpp"

using namespace commsched;

namespace {

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: replay_swf TRACE.swf TOPOLOGY.conf\n"
            << "           [--cores-per-node C] [--max-jobs N]\n"
            << "           [--allocator default|greedy|balanced|adaptive]\n"
            << "           [--no-backfill] [--trace OUT.jsonl]\n";
  std::exit(2);
}

int count_arg(const std::string& flag, const std::string& value) {
  const auto v = parse_int_at_least(value, 1);
  if (!v) usage(flag + " needs a positive integer, got '" + value + "'");
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string swf_path, topo_path, trace_path;
  SwfOptions swf_options;
  swf_options.sort_by_submit = true;  // archive logs are not always sorted
  SchedOptions sched_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--cores-per-node")
      swf_options.cores_per_node = count_arg(arg, next());
    else if (arg == "--max-jobs")
      swf_options.max_jobs = static_cast<std::size_t>(count_arg(arg, next()));
    else if (arg == "--allocator") {
      const auto kind = allocator_kind_from_string(next());
      if (!kind) usage("unknown allocator");
      sched_options.allocator = *kind;
    } else if (arg == "--no-backfill")
      sched_options.easy_backfill = false;
    else if (arg == "--trace")
      trace_path = next();
    else if (swf_path.empty())
      swf_path = arg;
    else if (topo_path.empty())
      topo_path = arg;
    else
      usage("unexpected argument '" + arg + "'");
  }
  if (swf_path.empty() || topo_path.empty())
    usage("need an SWF trace and a topology.conf");

  // 1. Topology, then the log cleaned against it: jobs wider than the
  //    machine are dropped (and counted) instead of aborting the replay.
  const Tree tree = load_topology_conf(topo_path);
  swf_options.max_nodes = tree.node_count();
  SwfLoadStats stats;
  const JobLog log = load_swf(swf_path, swf_options, &stats);
  std::cerr << "loaded " << stats.kept << " of " << stats.parsed
            << " jobs (" << stats.dropped_invalid << " invalid, "
            << stats.dropped_too_wide << " too wide for "
            << tree.node_count() << " nodes)\n";

  // 2. Optional event-trace sink: every submit/start/end as a JSON line.
  std::ofstream trace_file;
  if (!trace_path.empty()) {
    trace_file.open(trace_path);
    if (!trace_file) usage("cannot open trace output '" + trace_path + "'");
    sched_options.trace = make_json_trace_sink(trace_file);
  }

  // 3. Replay. The log carries no communication attributes, so this is a
  //    pure scheduling replay: wait/turnaround times and utilization under
  //    the chosen allocator and queue discipline.
  const SimResult result = run_continuous(tree, log, sched_options);

  double total_wait = 0.0, total_node_hours = 0.0;
  for (const JobResult& j : result.jobs) {
    total_wait += j.wait_time();
    total_node_hours += j.node_hours();
  }
  const double n = result.jobs.empty()
                       ? 1.0
                       : static_cast<double>(result.jobs.size());
  std::cout << "allocator:      " << result.allocator_name << "\n"
            << "jobs completed: " << result.jobs.size() << "\n"
            << "makespan:       " << result.makespan / 3600.0 << " h\n"
            << "mean wait:      " << total_wait / n / 60.0 << " min\n"
            << "node-hours:     " << total_node_hours << "\n";
  return 0;
}
