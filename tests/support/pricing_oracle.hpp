// Start-path pricing done the long way: the oracle for the simulator's
// passed-on prices.
//
// The simulator prices each start with one kernel walk per distinct
// placement and reuses the sums adaptive's select already computed. This
// oracle replays a run's trace against a private ClusterState and a fresh
// allocator of the run's kind, selects each started job's nodes again, and
// prices them with no reuse at all: two profile lookups (chosen and default
// placement), four candidate_cost walks (each placement under an unweighted
// model and under the run's pricing model) and Eq. 7 through
// modified_runtime_with_io. Every value it returns must equal the
// simulator's bit for bit.
#pragma once

#include <span>
#include <vector>

#include "sched/result.hpp"
#include "sched/simulator.hpp"
#include "sched/trace.hpp"
#include "topology/tree.hpp"
#include "workload/job.hpp"

namespace commsched {

/// What the oracle derives for one started job.
struct OracleStart {
  bool started = false;
  double cost = 0.0;
  double cost_default = 0.0;
  double actual_runtime = 0.0;
  double end_time = 0.0;
};

struct OracleReplay {
  std::vector<OracleStart> starts;  ///< indexed like the log
  CacheStats cache;  ///< the oracle's own profile traffic, selects included
  /// sa runs: Eq. 6-priced starts whose pick differs from adaptive's on the
  /// same state, i.e. whose anneal ended cheaper than its seed.
  int sa_moved = 0;
};

/// Replay `trace` (every event the run emitted, in order) of
/// run_continuous(tree, log, options) and price each start. Static runtime
/// model only: options.degradation must be off.
OracleReplay replay_start_pricing(const Tree& tree, const JobLog& log,
                                  const SchedOptions& options,
                                  std::span<const TraceEvent> trace);

}  // namespace commsched
