#include "sched/individual.hpp"

#include <algorithm>
#include <memory>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "core/allocator.hpp"
#include "core/allocator_common.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace commsched {

namespace {

// Occupy ~options.occupancy of the machine with a spread of block jobs.
// Blocks are sized relative to a leaf so leaves end up partially filled —
// the regime where the policies actually differ.
void prefill(ClusterState& state, const IndividualOptions& options, Rng& rng) {
  const Tree& tree = state.tree();
  const auto target = static_cast<int>(
      options.occupancy * static_cast<double>(tree.node_count()));
  const int leaf_size =
      static_cast<int>(tree.nodes_of_leaf(tree.leaves().front()).size());
  JobId next_job = 1'000'000;  // disjoint from probe ids
  int occupied = 0;
  int failures = 0;
  while (occupied < target && failures < 64) {
    // Between an eighth of a leaf and 1.5 leaves, so some jobs span leaves.
    const int lo = std::max(1, leaf_size / 8);
    const int hi = std::max(lo + 1, (3 * leaf_size) / 2);
    int size = static_cast<int>(rng.uniform_int(lo, hi));
    size = std::min(size, target - occupied + lo);
    if (state.total_free() < size) break;

    // Scatter: pick a random start leaf and walk forward taking free nodes.
    const auto leaves = tree.leaves();
    const auto start =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(leaves.size()) - 1));
    std::vector<NodeId> nodes;
    for (std::size_t k = 0; k < leaves.size() && static_cast<int>(nodes.size()) < size; ++k) {
      const SwitchId leaf = leaves[(start + k) % leaves.size()];
      for (const NodeId n : tree.nodes_of_leaf(leaf)) {
        if (static_cast<int>(nodes.size()) == size) break;
        if (state.is_free(n)) nodes.push_back(n);
      }
    }
    if (static_cast<int>(nodes.size()) < size) {
      ++failures;
      continue;
    }
    const bool comm = rng.bernoulli(options.comm_prefill_fraction);
    state.allocate(next_job++, comm, nodes);
    occupied += size;
  }
}

}  // namespace

std::vector<IndividualOutcome> run_individual(const Tree& tree,
                                              const JobLog& probes,
                                              const IndividualOptions& options) {
  COMMSCHED_ASSERT(options.occupancy >= 0.0 && options.occupancy < 1.0);
  ClusterState state(tree);
  Rng rng(options.seed);
  prefill(state, options, rng);

  // One shared profile cache serves the four policies' internal
  // pricing and the probe pricing below.
  const auto cache = std::make_shared<CommCache>(
      probes.empty() ? double{1 << 20} : probes.front().msize);
  std::array<std::unique_ptr<Allocator>, kNumAllocatorKinds> allocators;
  for (const AllocatorKind kind : kAllAllocatorKinds)
    allocators[static_cast<std::size_t>(kind)] =
        make_allocator(kind, options.cost_options, cache);
  const CostModel model(tree, options.cost_options);
  CostWorkspace workspace;

  std::vector<IndividualOutcome> outcomes;
  outcomes.reserve(probes.size());
  for (const JobRecord& job : probes) {
    if (job.num_nodes > state.total_free()) continue;  // cannot probe

    AllocationRequest request;
    request.job = job.id;
    request.num_nodes = job.num_nodes;
    request.comm_intensive = job.comm_intensive;
    request.pattern = job.pattern;
    request.msize = job.msize;

    IndividualOutcome out;
    out.id = job.id;
    out.num_nodes = job.num_nodes;
    out.comm_intensive = job.comm_intensive;
    out.pattern = job.pattern;

    for (const AllocatorKind kind : kAllAllocatorKinds) {
      const auto i = static_cast<std::size_t>(kind);
      const auto nodes = allocators[i]->select(state, request);
      COMMSCHED_ASSERT_MSG(nodes.has_value(),
                           "policy failed although the probe fits");
      out.cost[i] = priced_by_eq6(job.comm_intensive, job.num_nodes)
                        ? model.selected(price_selected(*allocators[i], model,
                                                        *cache, state, *nodes,
                                                        request, workspace)
                                             .costs)
                        : 0.0;
    }
    for (const AllocatorKind kind : kAllAllocatorKinds) {
      const auto i = static_cast<std::size_t>(kind);
      out.exec_time[i] =
          job.comm_intensive
              ? modified_runtime(job.runtime, job.comm_fraction, out.cost[i],
                                 out.cost[0], options.runtime_options)
              : job.runtime;
    }
    outcomes.push_back(out);
  }
  return outcomes;
}

}  // namespace commsched
