#include "core/runtime_model.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace commsched {

double cost_ratio(double cost_jobaware, double cost_default,
                  const RuntimeModelOptions& options) {
  COMMSCHED_ASSERT(cost_jobaware >= 0.0 && cost_default >= 0.0);
  if (cost_default == 0.0) return 1.0;
  return std::clamp(cost_jobaware / cost_default, options.min_ratio,
                    options.max_ratio);
}

double modified_runtime(double runtime, double comm_fraction,
                        double cost_jobaware, double cost_default,
                        const RuntimeModelOptions& options) {
  COMMSCHED_ASSERT_GE(runtime, 0.0);
  COMMSCHED_ASSERT(comm_fraction >= 0.0 && comm_fraction <= 1.0);
  const double ratio = cost_ratio(cost_jobaware, cost_default, options);
  const double t_comm = runtime * comm_fraction;
  const double t_compute = runtime - t_comm;
  return t_compute + t_comm * ratio;
}

}  // namespace commsched
