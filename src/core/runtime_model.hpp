// Runtime impact model — the paper's Eq. 7 (§5.3).
//
//   T = T_compute + T_comm
//   T' = T_compute + T_comm * Cost_jobaware / Cost_default
//
// The communication part of a job scales with the ratio of its Eq. 6 cost
// under the evaluated allocation to its cost under the default allocation in
// the same cluster state; compute time is unaffected.  The ratio is clamped
// to guard the simulator against degenerate estimates (a zero default cost
// would otherwise divide by zero; the paper reports at most ~5x swings).
#pragma once

namespace commsched {

struct RuntimeModelOptions {
  double min_ratio = 0.05;  ///< lower clamp on Cost_jobaware / Cost_default
  double max_ratio = 20.0;  ///< upper clamp
};

/// Cost ratio with clamping; returns 1 when the default cost is zero
/// (single-node jobs have no communication to scale).
double cost_ratio(double cost_jobaware, double cost_default,
                  const RuntimeModelOptions& options = {});

/// Eq. 7. `comm_fraction` is T_comm / T in [0, 1]; `runtime` is the logged
/// total runtime T in seconds. Compute-intensive jobs should be passed
/// comm_fraction = 0 (their runtime is unaffected by allocation).
double modified_runtime(double runtime, double comm_fraction,
                        double cost_jobaware, double cost_default,
                        const RuntimeModelOptions& options = {});

}  // namespace commsched
