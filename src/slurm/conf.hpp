// slurm.conf subset — the configuration surface the paper's deployment
// touches (§3.1, §5.2): the scheduler plugin, the node-selection plugin,
// the topology plugin, and our JOBAWARE job-aware switch, plus a few knobs
// that map onto SchedOptions.
//
// Recognized keys (case-sensitive, Key=Value, '#' comments):
//   SchedulerType      = sched/backfill | sched/builtin
//   SelectType         = select/linear            (only supported value)
//   TopologyPlugin     = topology/tree | topology/none
//   PriorityType       = priority/fifo | priority/sjf | priority/smallest |
//                        priority/colocation
//   JobAware           = any registered policy name (default, greedy,
//                        balanced, adaptive, exclusive, io_aware, sa)
//   SelectTypeParameters = comma list tuning the sa policy: `sa` selects it
//                        (same as JobAware=sa); sa_budget=<int>,
//                        sa_seed=<uint64>, sa_t0=<float>, sa_cooling=<float>,
//                        sa_patience=<int>, sa_verify=<int> map onto
//                        SaOptions
//   Integer values must fit an int (sa_seed: 64 unsigned bits); a value
//   that would wrap is rejected like any other unsupported value.
//   BackfillDepth      = <int>
//   EnforceWallTime    = yes | no
//   AllocdParameters   = comma list configuring the allocator daemon
//                        (tools/allocd, src/serve): socket=<path>,
//                        queue=<int>, deadline_ms=<int>, idle_ms=<int>,
//                        write_ms=<int>
// Unknown keys are ignored (slurm.conf carries dozens we do not model).
#pragma once

#include <iosfwd>
#include <string>

#include "sched/simulator.hpp"

namespace commsched {

/// AllocdParameters: knobs for the allocator-as-a-service daemon. Defaults
/// mirror serve::ServerOptions so an empty key is the stock daemon.
struct ServeConf {
  std::string socket_path;      ///< socket=<path>; empty = daemon default
  int queue_depth = 1024;       ///< admission bound (queue=<int>)
  int default_deadline_ms = 0;  ///< deadline for requests that carry none
  int idle_timeout_ms = 30000;  ///< drop connections silent this long
  int write_timeout_ms = 5000;  ///< drop clients stalling reply writes
};

struct SlurmConf {
  SchedOptions sched;          ///< derived scheduling options
  bool topology_aware = true;  ///< TopologyPlugin=topology/tree
  ServeConf serve;             ///< AllocdParameters (allocator daemon)
};

/// Parse slurm.conf text. Throws ParseError on malformed lines or
/// unsupported values of recognized keys.
SlurmConf parse_slurm_conf(std::istream& in);

/// Parse from disk. Throws ParseError if unreadable.
SlurmConf load_slurm_conf(const std::string& path);

/// Render back to slurm.conf text.
std::string write_slurm_conf(const SlurmConf& conf);

}  // namespace commsched
