#include "audit/auditor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "util/assert.hpp"

namespace commsched {

namespace {

std::string node_set_repr(std::span<const NodeId> nodes) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) os << ',';
    if (i == 16) {  // keep violation reports readable for large jobs
      os << "... " << nodes.size() << " nodes";
      break;
    }
    os << nodes[i];
  }
  os << '}';
  return os.str();
}

}  // namespace

StateAuditor::StateAuditor(const Tree& tree, AuditLevel level)
    : level_(level), tree_(&tree) {
  if (!enabled()) return;
  shadow_owner_.assign(static_cast<std::size_t>(tree.node_count()),
                       kInvalidJob);
  shadow_free_ = tree.node_count();
  shadow_leaf_load_.assign(static_cast<std::size_t>(tree.leaf_count()), 0);
}

void StateAuditor::violation(const std::string& detail) const {
  throw InvariantError("audit violation " + context() + ": " + detail);
}

namespace {
// "end job 3" from the literal label + optional job id, only on the error
// paths — the per-event hot path stores the pieces without formatting them.
void append_event(std::ostream& os, std::string_view what, JobId job) {
  os << "'" << what;
  if (job != kInvalidJob) os << " " << job;
  os << "'";
}
}  // namespace

std::string StateAuditor::context() const {
  std::ostringstream os;
  os << "[level=" << audit_level_name(level_) << ", event #" << events_;
  if (saw_event_) {
    os << " ";
    append_event(os, last_event_, last_job_);
    os << " at t=" << last_time_;
  }
  os << "]";
  return os.str();
}

// contract-trusted: no-alloc: opt-in run auditing (enabled() gate in the
// simulator); invariant checks allocate for shadow state and diagnostics
void StateAuditor::on_event(double time, std::string_view what, JobId job) {
  if (!enabled()) return;
  ++checks_;
  if (saw_event_ && time < last_time_) {
    std::ostringstream os;
    os << "event clock ran backwards: ";
    append_event(os, what, job);
    os << " at t=" << time << " after ";
    append_event(os, last_event_, last_job_);
    os << " at t=" << last_time_;
    violation(os.str());
  }
  if (!std::isfinite(time)) {
    std::ostringstream os;
    os << "event ";
    append_event(os, what, job);
    os << " has non-finite time " << time;
    violation(os.str());
  }
  ++events_;
  last_time_ = time;
  last_event_ = what;
  last_job_ = job;
  saw_event_ = true;
}

// contract-trusted: no-alloc: opt-in run auditing (enabled() gate in the
// simulator); invariant checks allocate for shadow state and diagnostics
void StateAuditor::on_allocate(const ClusterState& state, JobId job,
                               std::span<const NodeId> nodes, LoadUnits load) {
  if (!enabled()) return;
  ++checks_;
  if (job == kInvalidJob) violation("allocation uses the invalid job id");
  if (load < 0)
    violation("job " + std::to_string(job) + " carries negative load " +
              std::to_string(load));
  if (live_.contains(job))
    violation("job " + std::to_string(job) +
              " allocated twice without an intervening release");
  if (nodes.empty())
    violation("job " + std::to_string(job) + " allocated an empty node set");
  // Checking and writing the shadow in one pass keeps this allocation-free
  // beyond the stored copy; a duplicate node inside `nodes` trips the
  // ownership check on its second occurrence (prior == job).
  for (const NodeId n : nodes) {
    if (n < 0 || n >= tree_->node_count()) {
      std::ostringstream os;
      os << "job " << job << " allocated out-of-range node " << n;
      violation(os.str());
    }
    const JobId prior = shadow_owner_[static_cast<std::size_t>(n)];
    if (prior == job) {
      std::ostringstream os;
      os << "job " << job << " allocation contains duplicate node " << n
         << " (allocation " << node_set_repr(nodes) << ")";
      violation(os.str());
    }
    if (prior != kInvalidJob) {
      std::ostringstream os;
      os << "allocation disjointness broken: node " << n << " given to job "
         << job << " while still held by job " << prior
         << " (allocation " << node_set_repr(nodes) << ")";
      violation(os.str());
    }
    // Per-node cross-validation against the cluster is an out-of-line call
    // per node: full only. Cheap still catches aggregate divergence through
    // the O(1) free-count check below.
    if (level_ == AuditLevel::kFull && state.owner(n) != job) {
      std::ostringstream os;
      os << "cluster state disagrees: node " << n << " should be owned by job "
         << job << " after allocation but owner() reports " << state.owner(n);
      violation(os.str());
    }
    shadow_owner_[static_cast<std::size_t>(n)] = job;
    shadow_leaf_load_[static_cast<std::size_t>(
        tree_->leaf_index(tree_->leaf_of(n)))] += load;
  }
  shadow_free_ -= static_cast<int>(nodes.size());
  shadow_load_total_ += load * static_cast<LoadUnits>(nodes.size());
  live_.emplace(job,
                LiveJob{std::vector<NodeId>(nodes.begin(), nodes.end()), load});
  if (state.total_free() != shadow_free_) {
    std::ostringstream os;
    os << "free-node count diverged after allocating job " << job
       << ": cluster reports " << state.total_free()
       << ", shadow table expects " << shadow_free_;
    violation(os.str());
  }
  // Cheap O(1) aggregate: the machine-wide load accumulator must track the
  // shadow ledger after every allocation (per-leaf divergence is full-level,
  // in check_state).
  if (state.total_load() != shadow_load_total_) {
    std::ostringstream os;
    os << "communication-load total diverged after allocating job " << job
       << ": cluster reports " << state.total_load()
       << ", shadow ledger expects " << shadow_load_total_;
    violation(os.str());
  }
}

void StateAuditor::on_release(const ClusterState& state, JobId job,
                              std::span<const NodeId> freed) {
  if (!enabled()) return;
  ++checks_;
  const auto it = live_.find(job);
  if (it == live_.end())
    violation("release of job " + std::to_string(job) +
              " which the auditor never saw allocated");
  // Fast path: ClusterState::release returns nodes in allocation order, so
  // an honest release matches the stored copy element-for-element. Only on a
  // mismatch pay for the order-insensitive comparison — the invariant is set
  // equality, not ordering.
  if (!std::equal(freed.begin(), freed.end(), it->second.nodes.begin(),
                  it->second.nodes.end())) {
    std::vector<NodeId> got(freed.begin(), freed.end());
    std::vector<NodeId> expected = it->second.nodes;
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    if (got != expected) {
      std::ostringstream os;
      os << "release of job " << job << " returned " << node_set_repr(got)
         << " but the job allocated " << node_set_repr(expected);
      violation(os.str());
    }
  }
  const LoadUnits load = it->second.load;
  for (const NodeId n : freed) {
    // Symmetric to on_allocate: the per-node is_free() round-trip into the
    // cluster is full-level; cheap keeps the local shadow bookkeeping.
    if (level_ == AuditLevel::kFull && !state.is_free(n)) {
      std::ostringstream os;
      os << "node " << n << " still busy after releasing its job " << job;
      violation(os.str());
    }
    shadow_owner_[static_cast<std::size_t>(n)] = kInvalidJob;
    shadow_leaf_load_[static_cast<std::size_t>(
        tree_->leaf_index(tree_->leaf_of(n)))] -= load;
  }
  shadow_free_ += static_cast<int>(freed.size());
  shadow_load_total_ -= load * static_cast<LoadUnits>(freed.size());
  live_.erase(it);
  scheduled_end_.erase(job);
  if (state.total_free() != shadow_free_) {
    std::ostringstream os;
    os << "free-node count diverged after releasing job " << job
       << ": cluster reports " << state.total_free()
       << ", shadow table expects " << shadow_free_;
    violation(os.str());
  }
  if (state.total_load() != shadow_load_total_) {
    std::ostringstream os;
    os << "communication-load total diverged after releasing job " << job
       << ": cluster reports " << state.total_load()
       << ", shadow ledger expects " << shadow_load_total_;
    violation(os.str());
  }
}

// contract-trusted: no-alloc: opt-in run auditing (enabled() gate in the
// simulator); invariant checks allocate for shadow state and diagnostics
void StateAuditor::on_end_scheduled(JobId job, double end_time) {
  if (!enabled()) return;
  ++checks_;
  if (!std::isfinite(end_time)) {
    std::ostringstream os;
    os << "job " << job << " scheduled a non-finite end time " << end_time;
    violation(os.str());
  }
  scheduled_end_[job] = end_time;
  saw_schedule_ = true;
}

// contract-trusted: no-alloc: opt-in run auditing (enabled() gate in the
// simulator); invariant checks allocate for shadow state and diagnostics
void StateAuditor::check_end_event(const ClusterState& state, JobId job,
                                   double time) {
  if (!enabled() || !saw_schedule_) return;
  ++checks_;
  if (!live_.contains(job))
    violation("completion event for job " + std::to_string(job) +
              " which the shadow table does not hold as running");
  if (!state.has_job(job))
    violation("completion event for job " + std::to_string(job) +
              " which the cluster no longer occupies");
  const auto it = scheduled_end_.find(job);
  if (it == scheduled_end_.end())
    violation("completion event for job " + std::to_string(job) +
              " with no end on record (on_end_scheduled never called)");
  // Exact equality on purpose: a re-evaluation updates the stored end and
  // the heap key from the same double, so any mismatch is a stale event.
  if (it->second != time) {
    std::ostringstream os;
    os << "stale completion event for job " << job << ": popped at t=" << time
       << " but the last scheduled end is t=" << it->second;
    violation(os.str());
  }
}

// contract-trusted: no-alloc: opt-in run auditing (enabled() gate in the
// simulator); invariant checks allocate for shadow state and diagnostics
void StateAuditor::check_backfill(double now, JobId job, double walltime,
                                  int num_nodes, double shadow_time,
                                  int extra_nodes) {
  if (!enabled()) return;
  ++checks_;
  const bool ends_before_shadow = now + walltime <= shadow_time;
  const bool fits_spare = num_nodes <= extra_nodes;
  if (!ends_before_shadow && !fits_spare) {
    std::ostringstream os;
    os << "EASY backfill violated the head reservation: job " << job
       << " (" << num_nodes << " nodes, walltime " << walltime
       << ") started at t=" << now << " but the head starts at t="
       << shadow_time << " with only " << extra_nodes << " spare nodes";
    violation(os.str());
  }
}

// contract-trusted: no-alloc: opt-in run auditing (enabled() gate in the
// simulator); invariant checks allocate for shadow state and diagnostics
void StateAuditor::check_cost(double cost, JobId job,
                              std::string_view metric) {
  if (!enabled()) return;
  ++checks_;
  if (!std::isfinite(cost) || cost < 0.0) {
    std::ostringstream os;
    os << metric << " for job " << job << " is " << cost
       << "; Eq. 5/6 values must be finite and non-negative";
    violation(os.str());
  }
}

// contract-trusted: no-alloc: opt-in run auditing (enabled() gate in the
// simulator); invariant checks allocate for shadow state and diagnostics
void StateAuditor::check_cost_symmetry(const CostModel& model,
                                       const ClusterState& state,
                                       std::span<const NodeId> nodes,
                                       JobId job) {
  if (level_ != AuditLevel::kFull) return;
  if (nodes.size() < 2) return;
  // Deterministic sample: pair opposite ends of the allocation, at most 4
  // pairs, so the check stays O(1) per job regardless of job size.
  const std::size_t pairs = std::min<std::size_t>(4, nodes.size() / 2);
  for (std::size_t k = 0; k < pairs; ++k) {
    ++checks_;
    const NodeId i = nodes[k];
    const NodeId j = nodes[nodes.size() - 1 - k];
    if (i == j) continue;
    if (tree_->distance(i, j) != tree_->distance(j, i)) {
      std::ostringstream os;
      os << "Eq. 4 distance asymmetric for job " << job << ": d(" << i << ","
         << j << ")=" << tree_->distance(i, j) << " but d(" << j << "," << i
         << ")=" << tree_->distance(j, i);
      violation(os.str());
    }
    const double hij = model.effective_hops(state, i, j);
    const double hji = model.effective_hops(state, j, i);
    if (!(hij == hji) || !std::isfinite(hij) || hij < 0.0) {
      std::ostringstream os;
      os << "Eq. 5 effective hops invalid for job " << job << ": Hops(" << i
         << "," << j << ")=" << hij << ", Hops(" << j << "," << i
         << ")=" << hji << " (must be equal, finite and non-negative)";
      violation(os.str());
    }
  }
}

// contract-trusted: no-alloc: opt-in run auditing (enabled() gate in the
// simulator); invariant checks allocate for shadow state and diagnostics
void StateAuditor::check_profile(Pattern pattern,
                                 const LeafCommProfile& profile,
                                 std::span<const NodeId> nodes, JobId job) {
  if (!enabled()) return;
  ++checks_;
  const int rpn = profile.ranks_per_node;
  if (rpn < 1 ||
      static_cast<int>(nodes.size()) * rpn != profile.nprocs) {
    std::ostringstream os;
    os << "profile for job " << job << " covers " << profile.nprocs
       << " ranks (" << rpn << " per node) but the allocation has "
       << nodes.size() << " nodes";
    violation(os.str());
  }
  // Independent re-derivation of the canonical slot mapping (first
  // appearance in rank order), bypassing make_shape_key.
  std::vector<std::int32_t> slot_of_leaf(
      static_cast<std::size_t>(tree_->leaf_count()), -1);
  std::vector<std::int32_t> node_slot(nodes.size());
  std::int32_t slots = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    auto& slot = slot_of_leaf[static_cast<std::size_t>(
        tree_->leaf_index(tree_->leaf_of(nodes[i])))];
    if (slot < 0) slot = slots++;
    node_slot[i] = slot;
  }
  if (slots != profile.num_slots) {
    std::ostringstream os;
    os << "profile for job " << job << " has " << profile.num_slots
       << " leaf slots but the allocation touches " << slots << " leaves";
    violation(os.str());
  }
  if (profile.steps.empty()) return;  // single-rank jobs have no steps

  // Sample one step among the first 32 (bounds the regeneration cost; the
  // event counter rotates coverage across jobs).
  const auto window = std::min<std::size_t>(profile.steps.size(), 32);
  const auto target = static_cast<std::size_t>(events_ % window);
  const ProfileStep& recorded = profile.steps[target];
  if (recorded.cls < 0 ||
      static_cast<std::size_t>(recorded.cls) >= profile.classes.size()) {
    std::ostringstream os;
    os << "profile step " << target << " for job " << job
       << " references class " << recorded.cls << " of "
       << profile.classes.size();
    violation(os.str());
  }

  std::size_t index = 0;
  bool checked = false;
  for_each_schedule_step(
      pattern, profile.nprocs, profile.base_msize,
      [&](const CommStep& step) {
        if (index++ != target) return true;  // keep streaming
        std::vector<std::pair<std::int32_t, std::int32_t>> derived;
        std::vector<std::uint8_t> seen(
            static_cast<std::size_t>(slots) * static_cast<std::size_t>(slots),
            0);
        std::int64_t rank_pairs = 0, same_node = 0, same_leaf = 0;
        for (const auto& [ri, rj] : step.pairs) {
          ++rank_pairs;
          const int ni = ri / rpn;
          const int nj = rj / rpn;
          if (ni == nj) {
            ++same_node;
            continue;
          }
          auto sa = node_slot[static_cast<std::size_t>(ni)];
          auto sb = node_slot[static_cast<std::size_t>(nj)];
          if (sa > sb) std::swap(sa, sb);
          if (sa == sb) ++same_leaf;
          auto& flag = seen[static_cast<std::size_t>(sa) *
                                static_cast<std::size_t>(slots) +
                            static_cast<std::size_t>(sb)];
          if (!flag) {
            flag = 1;
            derived.emplace_back(sa, sb);
          }
        }
        std::sort(derived.begin(), derived.end());
        const ProfileStepClass& cls =
            profile.classes[static_cast<std::size_t>(recorded.cls)];
        if (derived != cls.leaf_pairs || rank_pairs != recorded.rank_pairs ||
            same_node != recorded.same_node_pairs ||
            same_leaf != recorded.same_leaf_pairs ||
            step.msize != recorded.msize || step.repeat != recorded.repeat) {
          std::ostringstream os;
          os << "cached profile diverges from the schedule for job " << job
             << " at step " << target << " (" << pattern_name(pattern) << ", "
             << profile.nprocs << " ranks): re-derived " << derived.size()
             << " distinct leaf pairs / " << rank_pairs << " rank pairs / "
             << same_node << " same-node / " << same_leaf
             << " same-leaf, msize=" << step.msize << ", repeat="
             << step.repeat << "; profile records " << cls.leaf_pairs.size()
             << " / " << recorded.rank_pairs << " / "
             << recorded.same_node_pairs << " / " << recorded.same_leaf_pairs
             << ", msize=" << recorded.msize << ", repeat="
             << recorded.repeat;
          violation(os.str());
        }
        checked = true;
        return false;  // stop streaming: one sampled step per job
      });
  if (!checked) {
    std::ostringstream os;
    os << "profile for job " << job << " records " << profile.steps.size()
       << " steps but the " << pattern_name(pattern) << " schedule at "
       << profile.nprocs << " ranks ended before step " << target;
    violation(os.str());
  }
}

// contract-trusted: no-alloc: opt-in run auditing (enabled() gate in the
// callers); the recompute allocates only for its private workspace warm-up
// and on the failure path
void StateAuditor::check_reused_cost(const CostModel& model,
                                     const ClusterState& state,
                                     std::span<const NodeId> nodes,
                                     bool comm_intensive,
                                     const LeafCommProfile& profile,
                                     const CandidateCosts& claimed, JobId job) {
  if (!enabled()) return;
  ++checks_;
  const CandidateCosts fresh =
      model.candidate_costs(state, nodes, comm_intensive, profile, cost_ws_);
  if (claimed == fresh) return;
  std::ostringstream os;
  const auto report = [&os](const char* name, double claim, double value) {
    if (claim == value) return;
    os << ' ' << name << ": claimed " << std::hexfloat << claim
       << ", recomputed " << value << std::defaultfloat << " (" << claim
       << " vs " << value << ");";
  };
  os << "reused Eq. 6 price diverges from a fresh recompute of the placement "
        "for job "
     << job << " on " << node_set_repr(nodes) << ":";
  report("hops", claimed.hops, fresh.hops);
  report("hop_bytes", claimed.hop_bytes, fresh.hop_bytes);
  violation(os.str());
}

void StateAuditor::check_flow(double remaining, double rate, double latency,
                              int job) {
  if (level_ != AuditLevel::kFull) return;
  ++checks_;
  // The fluid solver drains flows to within a byte epsilon of zero; allow
  // that drift but catch real sign/NaN corruption.
  constexpr double kByteSlack = 1e-3;
  if (!std::isfinite(remaining) || remaining < -kByteSlack ||
      !std::isfinite(rate) || rate < 0.0 || !std::isfinite(latency) ||
      latency < -kByteSlack) {
    std::ostringstream os;
    os << "netsim flow of job " << job << " corrupted: remaining=" << remaining
       << " bytes, rate=" << rate << " B/s, latency=" << latency << " s";
    violation(os.str());
  }
}

void StateAuditor::check_state(const ClusterState& state) {
  if (level_ != AuditLevel::kFull) return;
  ++checks_;
  // From-scratch recomputation of every incremental counter.
  state.validate();

  // Cross-check against the shadow table built from the event stream.
  if (state.job_count() != live_.size()) {
    std::ostringstream os;
    os << "live-job count diverged: cluster tracks " << state.job_count()
       << " jobs, auditor saw " << live_.size();
    violation(os.str());
  }
  // Visit shadow jobs sorted by id: unordered_map hash order would leak
  // into which divergence report fires first, making audit failures
  // non-reproducible across libstdc++ versions.
  std::vector<JobId> live_jobs;
  live_jobs.reserve(live_.size());
  // contract-trusted: determinism: keys are sorted below before any output
  for (const auto& kv : live_) live_jobs.push_back(kv.first);
  std::sort(live_jobs.begin(), live_jobs.end());
  for (const JobId job : live_jobs) {
    const std::vector<NodeId>& shadow_nodes = live_.at(job).nodes;
    if (!state.has_job(job))
      violation("job " + std::to_string(job) +
                " is live in the shadow table but unknown to the cluster");
    const auto span = state.job_nodes(job);
    std::vector<NodeId> cluster_nodes(span.begin(), span.end());
    std::vector<NodeId> audit_nodes = shadow_nodes;
    std::sort(cluster_nodes.begin(), cluster_nodes.end());
    std::sort(audit_nodes.begin(), audit_nodes.end());
    if (cluster_nodes != audit_nodes) {
      std::ostringstream os;
      os << "job " << job << " node sets diverged: cluster holds "
         << node_set_repr(cluster_nodes) << ", auditor recorded "
         << node_set_repr(audit_nodes);
      violation(os.str());
    }
  }
  if (state.total_free() != shadow_free_) {
    std::ostringstream os;
    os << "total_free diverged: cluster reports " << state.total_free()
       << ", shadow table expects " << shadow_free_;
    violation(os.str());
  }

  // Per-leaf availability vs. the topology: busy counts must stay within
  // the leaf's attached-node budget and match the shadow ownership table.
  for (const SwitchId leaf : tree_->leaves()) {
    int shadow_busy = 0;
    for (const NodeId n : tree_->nodes_of_leaf(leaf))
      if (shadow_owner_[static_cast<std::size_t>(n)] != kInvalidJob)
        ++shadow_busy;
    const int busy = state.leaf_busy(leaf);
    const int cap = state.leaf_nodes(leaf);
    if (busy < 0 || busy > cap || busy != shadow_busy) {
      std::ostringstream os;
      os << "leaf " << tree_->switch_name(leaf) << " availability diverged: "
         << "L_busy=" << busy << " (shadow " << shadow_busy << ", L_nodes="
         << cap << ")";
      violation(os.str());
    }
    if (state.leaf_comm(leaf) < 0 || state.leaf_comm(leaf) > busy) {
      std::ostringstream os;
      os << "leaf " << tree_->switch_name(leaf) << " has L_comm="
         << state.leaf_comm(leaf) << " outside [0, L_busy=" << busy << "]";
      violation(os.str());
    }
    // The packed free index behind free_leaf_span() — the zero-copy path
    // every allocator enumerates — must list exactly this leaf's free nodes
    // in ascending order, judged against the auditor's own shadow ownership
    // table (independent of ClusterState::validate()).
    const std::span<const NodeId> free_span = state.free_leaf_span(leaf);
    if (static_cast<int>(free_span.size()) != cap - shadow_busy) {
      std::ostringstream os;
      os << "leaf " << tree_->switch_name(leaf) << " free index lists "
         << free_span.size() << " nodes but the shadow table has "
         << (cap - shadow_busy) << " free";
      violation(os.str());
    }
    NodeId prev = kInvalidNode;
    for (const NodeId n : free_span) {
      if (n <= prev || tree_->leaf_of(n) != leaf ||
          shadow_owner_[static_cast<std::size_t>(n)] != kInvalidJob) {
        std::ostringstream os;
        os << "leaf " << tree_->switch_name(leaf)
           << " free index corrupt at node " << n << " (prev " << prev
           << "): must be ascending, attached to this leaf, and free in the "
              "shadow table";
        violation(os.str());
      }
      prev = n;
    }
  }
  if (state.free_under(tree_->root()) != state.total_free()) {
    std::ostringstream os;
    os << "root subtree free count " << state.free_under(tree_->root())
       << " != total_free " << state.total_free();
    violation(os.str());
  }

  // Communication-load ledger: every per-leaf accumulator, plus the subtree
  // aggregate at the root, must match the shadow built from allocations.
  for (const SwitchId leaf : tree_->leaves()) {
    ++checks_;
    const LoadUnits shadow =
        shadow_leaf_load_[static_cast<std::size_t>(tree_->leaf_index(leaf))];
    if (state.leaf_load(leaf) != shadow) {
      std::ostringstream os;
      os << "leaf " << tree_->switch_name(leaf) << " L_load="
         << state.leaf_load(leaf) << " diverged from the shadow ledger ("
         << shadow << ")";
      violation(os.str());
    }
  }
  if (state.total_load() != shadow_load_total_ ||
      state.load_under(tree_->root()) != shadow_load_total_) {
    std::ostringstream os;
    os << "machine load diverged: total_load=" << state.total_load()
       << ", root subtree load=" << state.load_under(tree_->root())
       << ", shadow ledger expects " << shadow_load_total_;
    violation(os.str());
  }

  // End-event bookkeeping: once any end was scheduled, exactly the live jobs
  // must have one (a missing entry would make its completion unverifiable; a
  // leftover entry is a leak from a release that skipped cleanup).
  if (saw_schedule_ && scheduled_end_.size() != live_.size()) {
    std::ostringstream os;
    os << "scheduled-end table holds " << scheduled_end_.size()
       << " jobs but " << live_.size() << " are running";
    violation(os.str());
  }
  if (saw_schedule_) {
    for (const JobId job : live_jobs) {
      ++checks_;
      if (!scheduled_end_.contains(job))
        violation("running job " + std::to_string(job) +
                  " has no scheduled end on record");
    }
  }
}

}  // namespace commsched
