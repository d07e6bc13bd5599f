// Cluster allocation state — the SLURM select/linear node-state equivalent.
//
// Tracks which whole nodes each job occupies, and maintains the per-leaf
// counters the paper's algorithms consume (Table 1):
//   L_nodes — nodes attached to the leaf switch,
//   L_busy  — nodes currently allocated on the leaf,
//   L_comm  — nodes running communication-intensive jobs on the leaf,
// plus per-switch subtree free counts for the lowest-level-switch search.
//
// Dynamic interference (DESIGN.md "Dynamic interference"): alongside the
// boolean L_comm count, every leaf carries a *communication-load
// accumulator* L_load — the sum of the per-node load units of the jobs
// occupying its nodes — and every switch the subtree aggregate, so the
// degradation model (src/core/degradation_model) and the colocation queue
// policy can read "who shares links right now" in O(1) per leaf. Loads are
// integers (LoadUnits, kLoadUnitScale units == intensity 1.0) so the
// incremental accounting is exact: validate() and the StateAuditor compare
// with == rather than an epsilon.
//
// Million-job scale (DESIGN.md "Million-job event loop"): on top of the
// counters, every leaf keeps a packed sorted *free-node index* — a segment
// of one backing array whose prefix lists the leaf's free nodes in
// ascending id order. Enumerating or taking free nodes is therefore O(nodes
// touched) instead of scanning every attached node with is_free(), and
// free_leaf_span() exposes the prefix without copying. Job records live in
// a slot pool indexed by a dense JobId table (scheduler ids are log index +
// 1), so steady-state allocate/release perform no hashing and recycle node
// vectors instead of reallocating them.
//
// allocate() and release_into() update every structure in one batched
// transition: the job's nodes are grouped by leaf, each touched leaf's free
// prefix is compacted (allocate) or merged (release) in one O(F + k) pass
// (F = the leaf's free count, k = the job's nodes on it), and its counters
// and ancestor aggregates move once by the leaf's total. A start therefore
// costs O(job + sum of F over touched leaves + touched leaves x depth); a
// leaf whose nodes the caller lists out of ascending order adds a sort of
// its k nodes. validate() recomputes everything from scratch for tests.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "topology/tree.hpp"

namespace commsched {

using JobId = std::int64_t;
inline constexpr JobId kInvalidJob = -1;

/// Per-node communication-load units. A job contributes `load` units to
/// every leaf it occupies a node on, where kLoadUnitScale units correspond
/// to comm intensity 1.0 (T_comm == T). Integer units keep the incremental
/// per-leaf accumulators exactly recomputable.
using LoadUnits = std::int64_t;
inline constexpr LoadUnits kLoadUnitScale = 1024;

/// Mutable allocation state over an immutable Tree. The Tree must outlive
/// the ClusterState.
class ClusterState {
 public:
  explicit ClusterState(const Tree& tree);

  const Tree& tree() const noexcept { return *tree_; }

  /// Mark `nodes` as occupied by `job`. Preconditions: the job id is unused,
  /// every node is currently free, and `nodes` has no duplicates.
  /// `io_intensive` feeds the L_io counter of the I/O-aware extension
  /// (paper §7 future work); it is independent of the communication class.
  /// `comm_load` is the job's per-node communication load (>= 0), added to
  /// the L_load accumulator of every leaf the job touches; 0 (the default,
  /// and the only sensible value for compute-bound jobs) leaves the load
  /// accounting untouched.
  void allocate(JobId job, bool comm_intensive, std::span<const NodeId> nodes,
                bool io_intensive = false, LoadUnits comm_load = 0);

  /// Free every node held by `job` and return exactly the node set the job
  /// allocated (in allocation order) — the audit layer cross-checks it.
  /// Precondition: the job is allocated.
  std::vector<NodeId> release(JobId job);

  /// Allocation-free release for hot loops: assigns the freed node set (in
  /// allocation order) into `out`, reusing its capacity, and recycles the
  /// job's record. Precondition: the job is allocated.
  void release_into(JobId job, std::vector<NodeId>& out);

  bool is_free(NodeId n) const;
  JobId owner(NodeId n) const;  ///< kInvalidJob when free

  bool has_job(JobId job) const;
  /// Nodes held by `job`, in allocation order.
  std::span<const NodeId> job_nodes(JobId job) const;
  bool job_is_comm(JobId job) const;
  /// Per-node load units `job` was allocated with.
  LoadUnits job_load(JobId job) const;
  std::size_t job_count() const noexcept { return live_jobs_; }

  int total_nodes() const noexcept { return tree_->node_count(); }
  int total_free() const noexcept { return free_total_; }

  // --- Paper Table 1 counters -------------------------------------------
  int leaf_nodes(SwitchId leaf) const;  ///< L_nodes
  int leaf_busy(SwitchId leaf) const;   ///< L_busy
  int leaf_comm(SwitchId leaf) const;   ///< L_comm
  int leaf_io(SwitchId leaf) const;     ///< L_io (§7 I/O-aware extension)
  // hot-path: no-alloc
  int leaf_free(SwitchId leaf) const { return leaf_nodes(leaf) - leaf_busy(leaf); }

  /// Free nodes in the subtree of any switch (== leaf_free for leaves).
  int free_under(SwitchId s) const;

  // --- Dynamic-interference load accounting ------------------------------
  /// L_load: total per-node load units of the jobs on the leaf's nodes.
  LoadUnits leaf_load(SwitchId leaf) const;
  /// Subtree load aggregate for any switch (== leaf_load for leaves): the
  /// per-link-level view the degradation model reads for upper tree levels.
  LoadUnits load_under(SwitchId s) const;
  /// Machine-wide load (== load_under(root)).
  LoadUnits total_load() const noexcept { return load_total_; }
  /// Zero-copy per-switch views, indexed by SwitchId (internal switches are
  /// always 0 in leaf_loads). Invalidated by any allocate/release.
  std::span<const LoadUnits> leaf_loads() const noexcept { return leaf_load_; }
  std::span<const LoadUnits> switch_loads() const noexcept {
    return switch_load_;
  }

  /// Free nodes on a leaf switch, in ascending node-id order.
  std::vector<NodeId> free_nodes_of_leaf(SwitchId leaf) const;

  /// Zero-copy view of the leaf's free nodes, ascending node-id order
  /// (the per-leaf free index). Invalidated by any allocate/release.
  std::span<const NodeId> free_leaf_span(SwitchId leaf) const;

  /// Recompute all counters and the per-leaf free index from the per-node
  /// table and compare with the incremental ones. Throws InvariantError on
  /// mismatch (test hook).
  void validate() const;

 private:
  // Deliberate-corruption hook for validate()/auditor failure-path tests.
  friend struct ClusterStateTestPeer;

  struct JobRec {
    JobId id = kInvalidJob;
    bool comm_intensive = false;
    bool io_intensive = false;
    bool live = false;
    LoadUnits load = 0;         // per-node communication load units
    std::vector<NodeId> nodes;  // capacity survives slot recycling
  };

  // JobIds below this bound index dense_slot_ directly; anything else
  // (huge or negative ids from ad-hoc callers) falls back to the hash map.
  static constexpr JobId kDenseJobIds = JobId{1} << 26;

  // One touched leaf of a transition: first[0, count) are the job's nodes
  // on `leaf`, ascending (in the caller's list or in grouped_).
  struct LeafGroup {
    SwitchId leaf;
    std::int32_t count;
    const NodeId* first;
  };

  /// Fills groups_ (first-touch leaf order) from `nodes`. The groups point
  /// into `nodes` when each leaf's nodes form one ascending run there, and
  /// into grouped_ otherwise.
  void group_by_leaf(std::span<const NodeId> nodes);
  /// Moves every node of `rec` to busy (delta +1, owner rec.id) or free
  /// (delta -1), one pass per touched leaf.
  void transition(const JobRec& rec, int delta);
  std::int32_t find_slot(JobId job) const;  ///< -1 when absent
  std::int32_t claim_slot(JobId job);
  void drop_slot(JobId job, std::int32_t slot);

  const Tree* tree_;
  std::vector<JobId> node_owner_;       // per node
  std::vector<int> leaf_busy_;          // per switch (leaves used)
  std::vector<int> leaf_comm_;          // per switch (leaves used)
  std::vector<int> leaf_io_;            // per switch (leaves used)
  std::vector<int> switch_free_;        // per switch, subtree free count
  int free_total_ = 0;

  // Dynamic-interference load accumulators, mirrored over the same switch
  // indexing as the busy/free counters.
  std::vector<LoadUnits> leaf_load_;    // per switch (leaves used)
  std::vector<LoadUnits> switch_load_;  // per switch, subtree load sum
  LoadUnits load_total_ = 0;

  // Per-leaf free index: free_list_[leaf_off_[leaf] .. +leaf_free(leaf))
  // holds the leaf's free nodes sorted ascending; the rest of the segment
  // (up to leaf_nodes(leaf)) is scratch.
  std::vector<NodeId> free_list_;
  std::vector<std::int32_t> leaf_off_;  // per switch; -1 for internal

  // Job records: slot pool + dense id table (+ sparse overflow).
  std::vector<JobRec> job_pool_;
  std::vector<std::int32_t> free_slots_;
  std::vector<std::int32_t> dense_slot_;  // JobId -> slot index, -1 absent
  std::unordered_map<JobId, std::int32_t> sparse_slot_;
  std::size_t live_jobs_ = 0;

  // Duplicate-node check scratch for allocate(): epoch stamping avoids a
  // per-call hash set.
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;

  // transition() scratch, sized at construction: groups_ has room for one
  // group per leaf, grouped_ for every node, and leaf_group_ maps a leaf
  // switch to its index in groups_ (-1 between calls).
  std::vector<LeafGroup> groups_;
  std::vector<NodeId> grouped_;
  std::vector<std::int32_t> leaf_group_;
  // Per node, tree_->leaf_of(n), so the grouping pass reads one array
  // instead of calling into Tree for every node.
  std::vector<SwitchId> node_leaf_;
};

}  // namespace commsched
