// perfbench — the repository benchmark binary.
//
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --allocd <allocd binary> --conf <slurm.conf> --out-dir <dir>
//             [--small]
//
// Workloads: replay-adaptive, replay-sa, replay-backlog, serve-closed.
// Prints one metadata line, then the result as the last line:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (each workload reports the layers it does not exercise as
// 0). Exits 1 when any correctness check fails, 2 on bad arguments.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --allocd <path> --conf <path> --out-dir <dir> "
               "[--small]\n";
  return 2;
}

void print_result(const Outcome& out, const RunConfig& config,
                  double calib) {
  using commsched::json_number;
  using commsched::json_quote;
  std::string meta = "{\"meta\":{\"workload\":" + json_quote(config.workload) +
                     ",\"seed\":" + std::to_string(config.seed) +
                     ",\"trace\":" + (config.trace ? "1" : "0") +
                     ",\"nproc\":" +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\"machine.calib_ms\":" + json_number(calib);
  for (const auto& [key, value] : out.notes) {
    const bool numeric = !value.empty() &&
                         value.find_first_not_of("0123456789.-+eE") ==
                             std::string::npos;
    meta += "," + json_quote(key) + ":" + (numeric ? value : json_quote(value));
  }
  std::cout << meta << "}}\n";

  std::string line = "{\"correct\":";
  line += out.problems.empty() ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(out.attempted);
  line += ",\"failed\":" + std::to_string(out.failed);
  line += ",\"metrics\":{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    line += (i > 0 ? "," : "") + json_quote(m.name) +
            ":{\"value\":" + json_number(m.value) +
            ",\"unit\":" + json_quote(m.unit) + "}";
  }
  std::cout << line << "}}" << std::endl;
}

int run(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--small") {
      config.small = true;
      continue;
    }
    if (value == nullptr) return usage();
    ++i;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      const auto v = commsched::parse_int(value);
      if (!v || *v < 0) return usage();
      config.seed = static_cast<std::uint64_t>(*v);
      have_seed = true;
    } else if (arg == "--seconds") {
      const auto v = commsched::parse_double(value);
      if (!v || *v <= 0.0) return usage();
      config.seconds = *v;
    } else if (arg == "--trace") {
      config.trace = std::string(value) == "1";
    } else if (arg == "--allocd") {
      config.allocd_path = value;
    } else if (arg == "--conf") {
      config.conf_path = value;
    } else if (arg == "--out-dir") {
      config.out_dir = value;
    } else {
      return usage();
    }
  }
  if (!have_seed || config.out_dir.empty()) return usage();
  // Production setting: no runtime auditing, here and in the daemon.
  ::setenv("COMMSCHED_AUDIT", "off", 1);

  Outcome out;
  if (config.workload == "serve-closed") {
    if (config.allocd_path.empty() || config.conf_path.empty()) return usage();
    out = run_serve(config);
  } else if (config.workload.rfind("replay-", 0) == 0) {
    out = run_replay(config);
  } else {
    std::cerr << "perfbench: unknown workload " << config.workload << "\n";
    return 2;
  }
  const double calib = calib_ms();
  if (config.trace) {
    out.metric("proc.cpu_s", process_cpu_s(), "s");
    out.metric("machine.calib_ms", calib, "ms");
  }
  for (const std::string& problem : out.problems)
    std::cerr << "perfbench: check failed: " << problem << "\n";
  print_result(out, config, calib);
  return out.problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
