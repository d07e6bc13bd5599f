#include "support/pricing_oracle.hpp"

#include <memory>
#include <unordered_map>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "core/adaptive_allocator.hpp"
#include "core/allocator_factory.hpp"
#include "core/cost_model.hpp"
#include "core/default_allocator.hpp"
#include "core/degradation_model.hpp"
#include "core/io_model.hpp"
#include "core/runtime_model.hpp"
#include "util/assert.hpp"

namespace commsched {

OracleReplay replay_start_pricing(const Tree& tree, const JobLog& log,
                                  const SchedOptions& options,
                                  std::span<const TraceEvent> trace) {
  COMMSCHED_ASSERT_MSG(!options.degradation.enabled,
                       "the pricing oracle models static Eq. 7 only");
  std::unordered_map<WorkloadJobId, std::size_t> index_of;
  for (std::size_t i = 0; i < log.size(); ++i) index_of.emplace(log[i].id, i);
  const auto job_id = [](std::size_t idx) {
    return static_cast<JobId>(idx) + 1;  // the simulator's numbering
  };

  ClusterState state(tree);
  auto cache = std::make_shared<CommCache>(
      log.empty() ? double{1 << 20} : log.front().msize);
  const std::unique_ptr<Allocator> allocator =
      make_allocator(options.allocator, options.cost_options, cache,
                     options.sa);
  const DefaultAllocator default_allocator;
  // sa's seed policy, pricing through a cache of its own (so the oracle's
  // traffic stays what the run's would be) at the same base message size.
  const AdaptiveAllocator adaptive(
      options.cost_options,
      std::make_shared<CommCache>(log.empty() ? double{1 << 20}
                                              : log.front().msize));
  const bool is_sa = options.allocator == AllocatorKind::kSa;
  const CostModel metric(tree,
                         CostOptions{.hop_bytes = false,
                                     .include_candidate =
                                         options.cost_options.include_candidate});
  const CostModel pricing(tree, options.cost_options);
  const IoModel io_model(tree);
  const RuntimeModelOptions runtime =
      runtime_options_from_env(options.runtime_options);
  const bool is_default = options.allocator == AllocatorKind::kDefault;
  CostWorkspace ws;

  OracleReplay replay;
  std::vector<OracleStart>& out = replay.starts;
  out.resize(log.size());
  for (const TraceEvent& event : trace) {
    const std::size_t idx = index_of.at(event.job);
    const JobRecord& job = log[idx];
    if (event.kind == TraceEvent::Kind::kEnd) {
      state.release(job_id(idx));
      continue;
    }
    if (event.kind != TraceEvent::Kind::kStart) continue;

    AllocationRequest request;
    request.job = job_id(idx);
    request.num_nodes = job.num_nodes;
    request.comm_intensive = job.comm_intensive;
    request.pattern = job.pattern;
    request.msize = job.msize;
    request.io_intensive = job.io_intensive;
    request.comm_fraction = job.comm_fraction;
    request.io_fraction = job.io_fraction;
    const auto nodes = allocator->select(state, request);
    COMMSCHED_ASSERT_MSG(nodes.has_value(),
                         "replayed start found no placement");
    const bool price_comm = job.comm_intensive && job.num_nodes >= 2;
    const bool price_io = job.io_intensive && job.io_fraction > 0.0;
    if (is_sa && price_comm && *nodes != adaptive.select(state, request))
      ++replay.sa_moved;
    std::vector<NodeId> default_nodes;
    if (!is_default && (price_comm || price_io))
      default_nodes = *default_allocator.select(state, request);

    OracleStart& s = out[idx];
    s.started = true;
    double priced = 0.0, priced_default = 0.0;
    if (price_comm) {
      const LeafCommProfile& profile = cache->profile(
          job.pattern, /*ranks_per_node=*/1, make_shape_key(tree, *nodes));
      s.cost = metric.candidate_cost(state, *nodes, true, profile, ws);
      s.cost_default = s.cost;
      if (!is_default) {
        const LeafCommProfile& default_profile = cache->profile(
            job.pattern, /*ranks_per_node=*/1,
            make_shape_key(tree, default_nodes));
        s.cost_default =
            metric.candidate_cost(state, default_nodes, true, default_profile,
                                  ws);
        priced = pricing.candidate_cost(state, *nodes, true, profile, ws);
        priced_default = pricing.candidate_cost(state, default_nodes, true,
                                                default_profile, ws);
      }
    }
    double io_cost = 0.0, io_cost_default = 0.0;
    if (price_io) {
      io_cost = io_model.candidate_cost(state, *nodes, job.io_intensive);
      io_cost_default = is_default ? io_cost
                                   : io_model.candidate_cost(
                                         state, default_nodes, job.io_intensive);
    }
    s.actual_runtime = job.runtime;
    if (!is_default && (price_comm || price_io))
      s.actual_runtime = modified_runtime_with_io(
          job.runtime, price_comm ? job.comm_fraction : 0.0, priced,
          priced_default, price_io ? job.io_fraction : 0.0, io_cost,
          io_cost_default, runtime);
    if (options.enforce_walltime && s.actual_runtime > job.walltime)
      s.actual_runtime = job.walltime;
    s.end_time = event.time + s.actual_runtime;

    state.allocate(request.job, job.comm_intensive, *nodes, job.io_intensive,
                   DegradationModel::quantize_load(price_comm,
                                                   job.comm_fraction));
  }
  const CommCache::Stats stats = cache->stats();
  replay.cache = {stats.profile_hits, stats.profile_misses};
  return replay;
}

}  // namespace commsched
