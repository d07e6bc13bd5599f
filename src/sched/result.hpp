// Per-job and per-run outputs of the scheduler simulator, carrying exactly
// the quantities the paper's evaluation metrics need (§5.4): execution time,
// wait time, turnaround time, node-hours and communication cost.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/job.hpp"

namespace commsched {

struct JobResult {
  WorkloadJobId id = 0;
  int num_nodes = 0;
  bool comm_intensive = false;
  Pattern pattern = Pattern::kRecursiveDoubling;

  double submit_time = 0.0;
  double start_time = 0.0;
  double end_time = 0.0;

  double original_runtime = 0.0;  ///< logged runtime T
  double actual_runtime = 0.0;    ///< simulated runtime T' (Eq. 7)

  double cost = 0.0;          ///< Eq. 6 cost of the committed allocation
  double cost_default = 0.0;  ///< hypothetical default-allocator cost, same state

  /// §7 I/O extension: IoModel costs (0 unless the job is I/O-intensive).
  double io_cost = 0.0;
  double io_cost_default = 0.0;

  /// True when SchedOptions::enforce_walltime truncated the job.
  bool hit_walltime = false;

  double wait_time() const { return start_time - submit_time; }
  double turnaround_time() const { return end_time - submit_time; }
  double node_hours() const {
    return static_cast<double>(num_nodes) * actual_runtime / 3600.0;
  }
};

/// Hit/miss counters of the run's shared CommCache (leaf-comm profile
/// lookups by the allocator and both pricing models). A plain copy of
/// CommCache::Stats so result consumers (metrics, exp) do not need the
/// collectives headers.
struct CacheStats {
  std::uint64_t profile_hits = 0;
  std::uint64_t profile_misses = 0;

  double profile_hit_rate() const {
    const std::uint64_t total = profile_hits + profile_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(profile_hits) /
                            static_cast<double>(total);
  }
};

struct SimResult {
  std::string allocator_name;
  std::vector<JobResult> jobs;  ///< in job-log order
  double makespan = 0.0;        ///< last completion time, seconds
  CacheStats cache_stats;       ///< run-wide CommCache hit/miss counters
};

}  // namespace commsched
