// Runtime invariant auditor (DESIGN.md "Correctness & analysis").
//
// StateAuditor cross-validates the simulator/cluster/topology invariants the
// paper's results depend on, after every scheduler event:
//   - allocation disjointness: no node is ever owned by two jobs, tracked in
//     a shadow ownership table maintained independently of ClusterState;
//   - free-node accounting: ClusterState::total_free() and the per-leaf
//     availability always match the shadow table (full level recomputes
//     every counter from scratch via ClusterState::validate());
//   - EASY backfill: a backfilled job can never delay the queue head's
//     reservation (it either ends before the shadow time or fits the spare
//     nodes);
//   - event-time monotonicity: simulator and netsim event clocks never run
//     backwards;
//   - cost sanity: Eq. 5/6 values are finite and non-negative, and
//     Hops(i,j) == Hops(j,i) (full level samples pairs per allocation);
//   - release() returns exactly the node set the job allocated;
//   - communication-load accounting: the per-leaf L_load accumulators match
//     a shadow ledger built from the allocation event stream (cheap checks
//     the machine total, full every leaf and the subtree aggregates);
//   - end-event/occupancy consistency: every completion event must carry
//     the end time most recently scheduled (on_end_scheduled) for a job the
//     cluster still occupies — a stale end event left behind by a runtime
//     re-evaluation bug fires at cheap level.
//
// A violation throws InvariantError whose message carries the offending
// job/event context (event number, kind, simulated time, expected vs actual
// values). The auditor never mutates the audited state.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "audit/level.hpp"
#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "collectives/schedule.hpp"
#include "core/cost_model.hpp"
#include "topology/tree.hpp"

namespace commsched {

/// Cross-validates scheduler state transitions against an independent shadow
/// ownership table. One auditor instance follows one ClusterState's lifetime;
/// all methods are no-ops at AuditLevel::kOff.
class StateAuditor {
 public:
  StateAuditor(const Tree& tree, AuditLevel level);

  AuditLevel level() const noexcept { return level_; }
  bool enabled() const noexcept { return level_ != AuditLevel::kOff; }

  /// Events observed via on_event() (0 when disabled).
  std::uint64_t events_seen() const noexcept { return events_; }
  /// Individual invariant checks executed so far (0 when disabled).
  std::uint64_t checks_run() const noexcept { return checks_; }

  /// Record a scheduler/netsim event and check the clock never runs
  /// backwards. `what` becomes part of any later violation report and must
  /// reference storage that outlives the next event — pass a string literal.
  /// `job`, when given, is rendered after the label ("end job 3"); keeping it
  /// separate keeps this per-event call allocation-free.
  void on_event(double time, std::string_view what, JobId job = kInvalidJob);

  /// Audit a committed allocation: `job` must be new, `nodes` disjoint from
  /// every live allocation (shadow table), and the free-node count must drop
  /// by exactly nodes.size(). At kFull each node is additionally
  /// cross-checked as owned by `job` in `state`. `load` is the job's
  /// per-node communication load, fed into the shadow load ledger that
  /// cross-checks the cluster's L_load accumulators.
  void on_allocate(const ClusterState& state, JobId job,
                   std::span<const NodeId> nodes, LoadUnits load = 0);

  /// Audit a release: `freed` must be exactly the node set `job` allocated
  /// and the free count must grow by exactly freed.size(). At kFull every
  /// freed node is additionally cross-checked as free again in `state`.
  void on_release(const ClusterState& state, JobId job,
                  std::span<const NodeId> freed);

  /// Record the end time the simulator scheduled (or re-scheduled) for a
  /// running job's completion event. check_end_event later requires the
  /// popped event to carry exactly the last recorded time.
  void on_end_scheduled(JobId job, double end_time);

  /// Audit a completion event about to be processed at `time`: the job must
  /// still occupy nodes in both the shadow ledger and `state`, must have a
  /// scheduled end on record, and that end must equal `time` exactly — a
  /// stale heap entry (a re-evaluation that forgot the heap fix-up, or a
  /// fix-up that forgot the bookkeeping) fails here at cheap level.
  void check_end_event(const ClusterState& state, JobId job, double time);

  /// Audit an EASY-backfill start decision: the backfilled job must be
  /// harmless to the head reservation — finish by `shadow_time` or fit in
  /// the `extra_nodes` the reservation leaves spare.
  void check_backfill(double now, JobId job, double walltime, int num_nodes,
                      double shadow_time, int extra_nodes);

  /// Audit one Eq. 5/6-derived value: must be finite and non-negative.
  void check_cost(double cost, JobId job, std::string_view metric);

  /// Full level: sample node pairs of `nodes` and check Hops(i,j) is
  /// symmetric and non-negative, and Eq. 4 distance is symmetric.
  void check_cost_symmetry(const CostModel& model, const ClusterState& state,
                           std::span<const NodeId> nodes, JobId job);

  /// Cheap level and up: cross-validate one sampled step of a cached
  /// LeafCommProfile against the raw schedule. The step's distinct leaf-pair
  /// set, same-node/same-leaf pair counts, msize, and repeat are re-derived
  /// from scratch (streaming the schedule, independent slot mapping) and
  /// must match the profile `nodes` was priced with. The sampled index
  /// rotates with the event counter over the first 32 steps, so regeneration
  /// stays O(steps-prefix) per job while successive jobs cover different
  /// steps.
  void check_profile(Pattern pattern, const LeafCommProfile& profile,
                     std::span<const NodeId> nodes, JobId job);

  /// Cheap level and up: re-price the chosen placement and check the price
  /// a select() handed on to the start path (Allocator::last_priced(),
  /// which the simulator and the allocator service reuse). A fresh
  /// CostModel::candidate_costs of `nodes` through `model` must reproduce
  /// both claimed sums bit for bit; the report gives both sides of each
  /// diverging sum as hexfloats. Call *before* the allocation is committed:
  /// the claim prices the pre-allocation state, so a claim made on another
  /// state (a select on one state followed by a start on another) fails
  /// here.
  void check_reused_cost(const CostModel& model, const ClusterState& state,
                         std::span<const NodeId> nodes, bool comm_intensive,
                         const LeafCommProfile& profile,
                         const CandidateCosts& claimed, JobId job);

  /// Full level: audit one netsim flow after a max-min rate computation —
  /// bytes remaining, rate, and startup latency must be finite and must not
  /// go (materially) negative.
  void check_flow(double remaining, double rate, double latency, int job);

  /// Full level: cross-validate every ClusterState counter against both a
  /// from-scratch recomputation (ClusterState::validate()) and the shadow
  /// ownership table, including per-leaf availability vs. the topology.
  void check_state(const ClusterState& state);

 private:
  [[noreturn]] void violation(const std::string& detail) const;
  std::string context() const;

  AuditLevel level_;
  const Tree* tree_;

  // Shadow of ClusterState, maintained from the on_allocate/on_release
  // event stream only, so divergence catches bugs in either bookkeeping.
  std::vector<JobId> shadow_owner_;  // per node
  struct LiveJob {
    // Nodes in allocation order (release must echo this order on the fast
    // path; set equality is re-checked on any ordering mismatch).
    std::vector<NodeId> nodes;
    LoadUnits load = 0;  // per-node load fed into the shadow ledger
  };
  std::unordered_map<JobId, LiveJob> live_;
  int shadow_free_ = 0;

  // Shadow of the cluster's communication-load accumulators, per leaf plus
  // the machine total, rebuilt from on_allocate/on_release alone.
  std::vector<LoadUnits> shadow_leaf_load_;
  LoadUnits shadow_load_total_ = 0;

  // job -> the end time most recently announced via on_end_scheduled.
  std::unordered_map<JobId, double> scheduled_end_;
  // Whether any end was ever scheduled: engines that never call
  // on_end_scheduled (none today, but the hook is optional) skip the
  // end-event cross-check instead of failing on an empty table.
  bool saw_schedule_ = false;

  // Private cost-kernel scratch for check_reused_cost's recompute, so the
  // audit never touches the workspace the simulator prices with.
  CostWorkspace cost_ws_;

  double last_time_ = 0.0;
  bool saw_event_ = false;
  std::string_view last_event_;  // a literal passed to on_event
  JobId last_job_ = kInvalidJob;
  std::uint64_t events_ = 0;
  std::uint64_t checks_ = 0;
};

}  // namespace commsched
