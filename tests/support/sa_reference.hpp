// The simulated-annealing walk without its one-slot exit: the oracle for
// SaAllocator's early end.
//
// SaAllocator ends a one-slot anneal once every leaf that can hold the job
// has been priced. This reference walks the long way instead, until the
// budget or the patience runs out, and it does so through public APIs
// only: the seed from AdaptiveAllocator, the moves drawn by propose_move
// from the same per-job Rng stream, its own feasibility check, and the
// prices from CostModel's delta session. Its best placement is rebuilt from
// the seed's ShapeKey runs. The allocator's placement and the
// sum its CostOptions select of the price it hands on (last_priced()) must
// equal the reference's bit for bit; its proposal and accept counts may be
// lower, and only for one-slot anneals.
#pragma once

#include <memory>
#include <vector>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "core/allocator.hpp"
#include "core/cost_model.hpp"
#include "core/sa_allocator.hpp"

namespace commsched {

/// One select() of the reference walk.
struct ReferenceSaPick {
  bool found = false;  ///< adaptive found a seed
  std::vector<NodeId> nodes;
  bool has_cost = false;  ///< a communication-intensive request was priced
  double cost = 0.0;      ///< Eq. 6 sum of `nodes`, per the CostOptions
  int slots = 0;             ///< leaf slots of the seed (priced requests)
  int candidate_leaves = 0;  ///< leaves that can hold the smallest slot
  int proposals = 0;
  int accepts = 0;
};

/// Select like SaAllocator(cost_options, options, cache) would, with the
/// anneal run to its budget or patience. Pass the cache the
/// allocator prices through, or one with the same base message size.
ReferenceSaPick reference_sa_select(const ClusterState& state,
                                    const AllocationRequest& request,
                                    const CostOptions& cost_options,
                                    const SaOptions& options,
                                    const std::shared_ptr<CommCache>& cache);

}  // namespace commsched
