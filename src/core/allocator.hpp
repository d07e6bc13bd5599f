// Node-allocation interface (paper §4).
//
// An Allocator is a pure selection policy: given the current cluster state
// and a job's request it returns the ordered node set the job should run on,
// without mutating the state — the scheduler commits the allocation.  Rank r
// of the job runs on the r-th returned node (SLURM block distribution), which
// is what ties the returned order to the collective schedules priced by the
// cost model.
#pragma once

#include <optional>
#include <vector>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "collectives/schedule.hpp"
#include "core/cost_model.hpp"
#include "topology/tree.hpp"

namespace commsched {

/// Everything an allocation decision may consider about a job. The paper
/// extends SLURM's (job, node count) request with the communication class
/// and the dominant collective's algorithm (§1, §4).
struct AllocationRequest {
  JobId job = kInvalidJob;
  int num_nodes = 0;
  bool comm_intensive = false;
  /// Algorithm of the job's most time-consuming MPI collective (§3.3).
  Pattern pattern = Pattern::kRecursiveDoubling;
  /// Base message size in bytes (used by hop-byte cost variants).
  double msize = 1 << 20;

  // --- §7 I/O-aware extension -------------------------------------------
  bool io_intensive = false;
  /// T_comm / T and T_io / T; only the I/O-aware policy weighs candidates
  /// by them (the paper's policies use the class flags alone).
  double comm_fraction = 0.5;
  double io_fraction = 0.0;
};

/// Whether Eq. 6 prices a job: a communication-intensive job on two or more
/// nodes (one node puts nothing on the network). The simulator's and
/// allocd's start pricing, run_individual's probes and the I/O-aware score
/// all follow this one rule.
constexpr bool priced_by_eq6(bool comm_intensive, int num_nodes) noexcept {
  return comm_intensive && num_nodes >= 2;
}

/// A placement's Eq. 6 price: both sums of one CostModel::candidate_costs
/// walk and the cached profile it walked (an entry of the CommCache, which
/// stays put).
struct PricedPlacement {
  CandidateCosts costs;
  const LeafCommProfile* profile = nullptr;
};

/// Abstract node-selection policy.
class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Human-readable policy name ("default", "greedy", ...).
  virtual const char* name() const noexcept = 0;

  /// Select request.num_nodes free nodes into `out` (cleared first) and
  /// return true; return false, leaving `out` empty, when the cluster cannot
  /// satisfy the request right now (the job must wait). Never mutates
  /// `state`; never writes an occupied or duplicated node. This is the
  /// simulator's hot path: implementations reuse `out`'s capacity and keep
  /// any internal scratch in mutable members, so concurrent calls on one
  /// instance are not safe (each campaign cell owns its allocators).
  virtual bool select_into(const ClusterState& state,
                           const AllocationRequest& request,
                           std::vector<NodeId>& out) const = 0;

  /// The price of the placement the last successful select_into() returned,
  /// when the policy priced it on the way; null when it did not (the
  /// default). The sums are candidate_costs on that call's state and
  /// request, under the policy's CostOptions and through its CommCache.
  /// Callers price a pick through price_selected() (core/allocator_common),
  /// which returns this price when it is set.
  virtual const PricedPlacement* last_priced() const noexcept {
    return nullptr;
  }

  /// Convenience wrapper over select_into() returning a fresh vector.
  std::optional<std::vector<NodeId>> select(
      const ClusterState& state, const AllocationRequest& request) const {
    std::vector<NodeId> out;
    if (!select_into(state, request, out)) return std::nullopt;
    return out;
  }
};

}  // namespace commsched
