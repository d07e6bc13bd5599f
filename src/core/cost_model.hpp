// The paper's communication-cost model (§5.3, Eqs. 2-6).
//
//   Contention factor C(i,j):
//     same leaf      : L_comm / L_nodes                              (Eq. 2)
//     different leaf : Li_comm/Li_nodes + Lj_comm/Lj_nodes
//                      + (Li_comm + Lj_comm) / (2 (Li_nodes+Lj_nodes)) (Eq. 3)
//   Distance   d(i,j) = 2 * level(lowest common switch)              (Eq. 4)
//   Eff. hops  Hops(i,j) = d(i,j) * (1 + C(i,j))                     (Eq. 5)
//   Job cost   Cost = sum over steps n of max_{(i,j) in S_n} Hops(i,j) (Eq. 6)
//
// Costs can be priced for a *candidate* allocation that is not committed yet:
// the candidate job's own ranks then count toward each leaf's L_comm (the
// paper's worked Figure 5 example includes the job under consideration), in
// the workspace's frozen per-slot inputs, so the ClusterState itself is never
// touched.
//
// One evaluation path: candidate_costs over a LeafCommProfile — the
// schedule lowered onto the allocation's canonical shape (CommCache memoizes
// it per run) — runs the expensive hop arithmetic once per distinct
// leaf-pair *class*, independent of the rank count, and returns both Eq. 6
// sums (hops and hop-bytes) from that one walk. The delta session prices
// tentative leaf moves against the same profile and agrees with it
// bit-for-bit. The pair-by-pair Eq. 6 oracle both are tested against lives
// under tests/support/.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "topology/tree.hpp"

namespace commsched {

struct CostOptions {
  /// Weight each step's max-hops by the step's message size (hop-bytes,
  /// §5.3). Off reproduces Eq. 6 exactly; on is the adaptive-estimator
  /// ablation variant.
  bool hop_bytes = false;
  /// Count the candidate job's own nodes as communication-intensive load on
  /// their leaves while pricing (matches the paper's Figure 5 arithmetic).
  /// Only applies when the candidate is communication-intensive.
  bool include_candidate = true;
};

/// Both Eq. 6 sums of one kernel walk: `hops` is Eq. 6 as printed (the cost
/// the simulator records), `hop_bytes` weights each step by its message
/// size (§5.3; the default Eq. 7 pricing metric). Each is bit-identical to a
/// one-sum walk under the CostOptions::hop_bytes value that selects it.
struct CandidateCosts {
  double hops = 0.0;
  double hop_bytes = 0.0;

  /// The sum a CostOptions::hop_bytes flag selects.
  double select(bool hop_bytes_flag) const noexcept {
    return hop_bytes_flag ? hop_bytes : hops;
  }
  bool operator==(const CandidateCosts&) const = default;
};

/// Extra communication-intensive node counts per leaf switch, representing a
/// hypothetical allocation on top of the committed ClusterState (the
/// per-pair contention/effective_hops and IoModel take one; the Eq. 6
/// kernel folds the candidate into its slot table instead).
class LeafOverlay {
 public:
  explicit LeafOverlay(const Tree& tree);

  /// Add one count per listed node on that node's leaf.
  void add_nodes(const Tree& tree, std::span<const NodeId> nodes);
  void clear();

  int extra_comm(SwitchId leaf) const;

 private:
  std::vector<int> extra_;
  std::vector<SwitchId> touched_;
};

/// One tentative relocation priced by CostModel::cost_delta: every node of
/// leaf slot `slot` of the current delta session's allocation moves to leaf
/// `leaf`. The target leaf must not be occupied by any other slot of the
/// session (ShapeKey slots are distinct leaves, and keeping them distinct is
/// what lets one cached LeafCommProfile price every move), and the cost model
/// does not check free capacity — that is the proposing allocator's job.
struct SlotMove {
  std::int32_t slot = -1;
  SwitchId leaf = kInvalidSwitch;
};

/// Most slots one cost_delta call may relocate at once (1 = reassignment,
/// 2 = a leaf swap expressed as two simultaneous moves).
inline constexpr std::size_t kMaxDeltaMoves = 2;

/// Per-call scratch for CostModel's kernels. A CostModel holds no mutable
/// state; every evaluation writes only into the workspace the caller passes,
/// so one CostModel is safe to share across threads as long as each thread
/// brings its own CostWorkspace.
/// A workspace is reusable across calls, models, and topologies; reuse keeps
/// the scratch buffers' capacity warm.
class CostWorkspace {
 public:
  CostWorkspace() = default;

  // An allocation frozen at leaf-slot granularity (CostModel::freeze_slots):
  // slots numbered by first appearance in the node list, the ShapeKey's
  // numbering, each with its leaf, its node count and its Eq. 2/3 inputs,
  // plus the k×k Eq. 5 memo and the per-class worst hops of one profile.
  struct SlotTable {
    int overlay = 0;                    // candidate ranks per node on L_comm
    std::vector<SwitchId> slot_leaf;
    std::vector<std::int32_t> slot_nnodes;
    std::vector<double> slot_comm;      // L_comm (+ overlay), per slot
    std::vector<double> slot_nodes;     // L_nodes, per slot
    std::vector<double> hops;           // k×k Eq. 5 memo, -1 unset
    std::vector<double> class_worst;    // per profile class: max hops
  };

  // --- Delta-cost session (CostModel::delta_begin / cost_delta /
  // delta_commit) -----------------------------------------------------------
  // One session prices many tentative SlotMoves against a frozen
  // (state, allocation, profile) base without re-running the full profile
  // kernel: begin materializes every class pair's Eq. 5 hops plus each
  // class's max and top-3 pairs; an eval recomputes only the pairs touching
  // the moved slots (epoch-stamped tentative rows, never mutating the
  // committed base) and closes each affected class's max over the untouched
  // pairs through the top-3 shortcut — O(affected leaf pairs) per move
  // instead of O(all pairs).
  struct DeltaTop {
    double v = -1.0;               // Eq. 5 hops; < 0 marks an empty entry
    std::int32_t a = -1, b = -1;   // the pair's leaf slots
  };
  // The committed base is the SlotTable (its memo valid on class pairs);
  // the session adds each class's top-3 and the move index.
  struct DeltaSession : SlotTable {
    bool active = false;                ///< delta_begin has primed the session
    bool pending = false;               ///< a cost_delta awaits delta_commit
    const LeafCommProfile* profile = nullptr;
    const ClusterState* state = nullptr;
    int free_at_begin = 0;              // tripwire: state must stay frozen
    std::vector<std::array<DeltaTop, 3>> top;
    double total = 0.0;                 // committed Eq. 6 total

    // Per-profile move index, rebuilt by every delta_begin: CSR slot ->
    // classes touching it, the flattened class pair lists, and CSR
    // (class, slot) -> ids of the class's pairs touching that slot.
    std::vector<std::int32_t> slot_class_off, slot_classes;
    std::vector<std::int32_t> class_pair_off;
    std::vector<std::int32_t> pair_a, pair_b;
    std::vector<std::int32_t> class_slot_pair_off, class_slot_pairs;
    std::vector<std::int32_t> index_cursor;  // build scratch
    std::vector<std::int32_t> slot_seen;     // build scratch (class dedupe)

    // Tentative evaluation rows, valid where the stamp equals move_epoch.
    std::uint64_t move_epoch = 0;
    std::vector<std::uint64_t> slot_stamp;
    std::vector<SwitchId> tent_leaf;
    std::vector<double> tent_comm, tent_nodes;
    std::vector<std::uint64_t> class_stamp;
    std::vector<double> tent_class_worst;
    std::vector<std::int32_t> touched_classes;
    std::array<SlotMove, kMaxDeltaMoves> last_moves{};
    std::size_t last_move_count = 0;
    double last_total = 0.0;
  };

 private:
  friend class CostModel;

  // Dense leaf index -> slot while freeze_slots runs (-1 otherwise).
  std::vector<std::int32_t> leaf_slot_;
  // Two tables: SaAllocator's verify_stride prices candidate_cost on the
  // session's own workspace in the middle of an anneal.
  SlotTable call_;  // candidate_cost
  DeltaSession delta_;
};

/// Evaluator bound to one topology. `effective_hops(i, j)` depends only on
/// (leaf_of(i), leaf_of(j)) and on leaf-level state that is frozen for the
/// duration of one cost call, so each call maps the allocation to leaf slots
/// once and memoizes per-leaf-pair hops — O(distinct leaf pairs) expensive
/// evaluations instead of O(rank pairs). All methods are const and the model
/// holds no mutable state; scratch lives in an explicit CostWorkspace, so
/// concurrent calls on ONE instance are safe when each caller passes its own
/// workspace.
class CostModel {
 public:
  explicit CostModel(const Tree& tree, CostOptions options = {});

  const Tree& tree() const noexcept { return *tree_; }
  const CostOptions& options() const noexcept { return options_; }

  /// C(i,j) per Eqs. 2-3, with `overlay` contributing extra L_comm
  /// (pass nullptr for committed-state-only pricing).
  double contention(const ClusterState& state, NodeId i, NodeId j,
                    const LeafOverlay* overlay = nullptr) const;

  /// Hops(i,j) per Eq. 5.
  double effective_hops(const ClusterState& state, NodeId i, NodeId j,
                        const LeafOverlay* overlay = nullptr) const;

  /// Eq. 6 for a *candidate* allocation, both sums from one walk. `nodes`
  /// is the *distinct ordered node list* whose canonical shape produced
  /// `profile` (nodes.size() * ranks_per_node == profile.nprocs; ranks are
  /// block-distributed). When the job is communication-intensive and
  /// options_.include_candidate is set, its ranks are overlaid onto leaf
  /// L_comm counts; otherwise the committed state alone is priced.
  /// O(distinct leaf pairs per class). options_.hop_bytes plays no part.
  CandidateCosts candidate_costs(const ClusterState& state,
                                 std::span<const NodeId> nodes,
                                 bool comm_intensive,
                                 const LeafCommProfile& profile,
                                 CostWorkspace& workspace) const;

  /// The sum of candidate_costs that options_.hop_bytes selects.
  // hot-path: no-alloc
  double candidate_cost(const ClusterState& state,
                        std::span<const NodeId> nodes, bool comm_intensive,
                        const LeafCommProfile& profile,
                        CostWorkspace& workspace) const {
    return selected(
        candidate_costs(state, nodes, comm_intensive, profile, workspace));
  }

  /// The sum of `costs` that options_.hop_bytes selects.
  // hot-path: no-alloc
  double selected(const CandidateCosts& costs) const noexcept {
    return costs.select(options_.hop_bytes);
  }

  // --- Delta-cost evaluation (DESIGN.md "Delta-cost evaluation & search
  // allocators") ------------------------------------------------------------
  // Move-evaluation contract: delta_begin freezes (state, nodes, profile)
  // as the session base and returns the full candidate cost (bit-for-bit
  // equal to candidate_cost on the same inputs). Each cost_delta prices the
  // base with the given slots tentatively relocated and returns the total a
  // fresh candidate_cost would compute for the moved allocation — again bit
  // for bit — in O(pairs touching the moved slots). delta_commit makes the
  // LAST evaluated move set the new base. The ClusterState must not change
  // between delta_begin and the session's last call; every move must keep
  // the session's slots on pairwise-distinct leaves (asserted).

  /// Prime a delta session for a candidate allocation and return its full
  /// cost. Per options_.include_candidate the candidate's nodes are overlaid
  /// when `comm_intensive` (exactly like candidate_cost).
  double delta_begin(const ClusterState& state, std::span<const NodeId> nodes,
                     bool comm_intensive, const LeafCommProfile& profile,
                     CostWorkspace& workspace) const;

  /// Price the committed base with `moves` applied tentatively (1 move =
  /// leaf reassignment, 2 = swap). Does not change the base; only the last
  /// evaluation can be committed.
  double cost_delta(const ClusterState& state, std::span<const SlotMove> moves,
                    CostWorkspace& workspace) const;

  /// Apply the last cost_delta's moves to the session base.
  void delta_commit(CostWorkspace& workspace) const;

  /// Committed total of the active session (== the value a full
  /// candidate_cost would return for the current base).
  double delta_total(const CostWorkspace& workspace) const;

  /// Committed leaf of a session slot (for callers mirroring the placement).
  SwitchId delta_slot_leaf(const CostWorkspace& workspace,
                           std::int32_t slot) const;

  /// Node count of a session slot (invariant across moves).
  int delta_slot_nnodes(const CostWorkspace& workspace,
                        std::int32_t slot) const;

 private:
  /// Freeze `nodes` into `table` for `profile`: first-appearance slots, per
  /// slot node count, L_comm (plus ranks_per_node per node when the
  /// candidate is overlaid) and L_nodes; reset the Eq. 5 memo and size the
  /// per-class worst values. Returns the slot count k.
  std::size_t freeze_slots(const ClusterState& state,
                           std::span<const NodeId> nodes, bool comm_intensive,
                           const LeafCommProfile& profile, CostWorkspace& ws,
                           CostWorkspace::SlotTable& table) const;

  const Tree* tree_;
  CostOptions options_;
};

}  // namespace commsched
