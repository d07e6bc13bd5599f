// Discrete-event SLURM-like scheduler simulator (DESIGN.md §3,
// substitution 1).
//
// Reproduces the scheduling semantics the paper runs inside SLURM 19.05:
//   - FIFO priority order with EASY backfilling (§3.1): the queue head gets
//     a walltime-based reservation; later jobs may jump ahead only if they
//     cannot delay that reservation.
//   - Whole-node allocation through a pluggable Allocator (select/linear +
//     topology/tree equivalents, §4).
//   - Runtime estimation per the paper's Eq. 7: when a job-aware policy
//     places a communication-intensive job, the simulator prices the chosen
//     allocation and the hypothetical default allocation for the *same*
//     cluster state with Eq. 6 and scales the job's communication time by
//     the ratio. The default policy therefore runs at ratio 1.
//
// The simulation is deterministic: no randomness, event order is total
// (completions before submissions at equal times, job order within a time
// by queue position).
#pragma once

#include <memory>
#include <optional>

#include "audit/level.hpp"
#include "core/allocator_factory.hpp"
#include "core/cost_model.hpp"
#include "core/degradation_model.hpp"
#include "core/runtime_model.hpp"
#include "sched/result.hpp"
#include "sched/trace.hpp"
#include "topology/tree.hpp"
#include "workload/job.hpp"

namespace commsched {

/// Queue ordering, the SLURM priority-plugin axis. The paper runs FIFO
/// (+ backfill); the alternatives are provided for substrate completeness
/// and ablations.
enum class QueuePolicy : std::uint8_t {
  kFifo,              ///< submit order (the paper's configuration)
  kShortestJobFirst,  ///< ascending walltime estimate
  kSmallestJobFirst,  ///< ascending node count
  /// Colocation-aware (DESIGN.md "Dynamic interference"): light
  /// communication loads first (they pack with anything), FIFO within equal
  /// loads, and a communication-intensive job is deferred while the
  /// antagonist load already on its prospective leaves exceeds
  /// SchedOptions::coloc_max_external — packing compatible jobs while
  /// separating antagonists.
  kColocation,
};

/// Event-loop engine (DESIGN.md "Million-job event loop"). kFast is the
/// production core: the pending queue is a hierarchical bitmap over
/// precomputed queue ranks (O(log n) insert/erase/successor instead of a
/// stable sort per event), the head reservation is a prefix scan over an
/// incrementally sorted running set, the backfill scan passes over 64-rank
/// words of jobs too large for the free nodes, and the steady state
/// allocates nothing. kReference keeps the original per-event-sort loop as
/// the differential baseline; both produce bit-identical SimResults (pinned
/// by tests/sched/engine_diff_test).
enum class SimEngine : std::uint8_t {
  kFast,       ///< indexed million-job core (default)
  kReference,  ///< original loop, kept as the differential oracle
};

struct SchedOptions {
  AllocatorKind allocator = AllocatorKind::kDefault;
  /// Pricing metric for the Eq. 7 runtime ratio and the adaptive policy's
  /// candidate comparison. Defaults to hop-byte weighting (§5.3: effective
  /// hop-bytes "gives an indication of communication time"; msize doubles
  /// per step under vector doubling). For constant-msize patterns (RD,
  /// binomial, ring) the ratio is identical to the pure Eq. 6 ratio; for
  /// RHVD the weighting is what gives balanced allocation its larger win
  /// (§6.1). JobResult.cost / cost_default always record the *unweighted*
  /// Eq. 6 cost, as plotted in Figure 8.
  CostOptions cost_options{.hop_bytes = true};
  /// Eq. 7 ratio clamps; the upper one also caps the degradation factor.
  RuntimeModelOptions runtime_options{};
  /// Dynamic interference (DESIGN.md "Dynamic interference"): when
  /// degradation.enabled, every running communication-intensive job's
  /// remaining time is rescaled whenever an allocation or release changes
  /// the co-located load on a leaf it touches, and its end event is
  /// rescheduled. Off reproduces the paper's allocation-time-frozen Eq. 7
  /// bit for bit.
  DegradationOptions degradation{};
  /// QueuePolicy::kColocation admission threshold: a communication-intensive
  /// job is deferred while the external load on its prospective leaves
  /// (DegradationModel::external_load, 1.0 == fully loaded neighbours)
  /// exceeds this. Deferral is live-lock free: a nonzero external load
  /// implies a running job, hence a pending completion event.
  double coloc_max_external = 0.25;
  /// AllocatorKind::kSa annealing knobs (ignored by the other policies).
  /// An unset sa.verify_stride rises with the audit level (sa_options_for,
  /// audit/level.hpp), and from cheap up the auditor re-prices the price sa
  /// hands on before every communication-intensive start commits.
  SaOptions sa{};
  /// EASY backfilling on/off (off = plain FIFO, blocks on the head job).
  bool easy_backfill = true;
  /// Max queued jobs examined per backfill pass (SLURM's bf_max_job_test).
  int backfill_depth = 200;
  /// Queue ordering (FIFO in the paper).
  QueuePolicy queue_policy = QueuePolicy::kFifo;
  /// Event-loop implementation; kReference is the bit-identical oracle for
  /// differential tests and should not be needed outside them.
  SimEngine engine = SimEngine::kFast;
  /// Kill jobs at their requested walltime, as production SLURM does. Off
  /// by default: the paper's Eq. 7 lets degraded placements overrun their
  /// logged runtime, and killing them would hide that signal.
  bool enforce_walltime = false;
  /// Optional event sink (submit/start/end, non-decreasing time order).
  TraceCallback trace;
  /// Runtime invariant auditing (src/audit): off disables all checks, cheap
  /// runs O(event) shadow-table checks, full re-validates every counter
  /// after every event. Unset reads the COMMSCHED_AUDIT environment
  /// variable (off when that is unset too).
  std::optional<AuditLevel> audit;
};

/// Run a job log to completion under one allocation policy.
/// Preconditions: every job fits the machine (num_nodes <= tree nodes) and
/// has positive runtime; the log is sorted by submit_time.
SimResult run_continuous(const Tree& tree, const JobLog& log,
                         const SchedOptions& options);

}  // namespace commsched
