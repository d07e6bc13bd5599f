// Canonical allocation shapes and the shared leaf-comm profile cache.
//
// Every allocator prices candidates with Eq. 6 over a collective schedule,
// but the expensive per-pair work depends only on which *leaf switches* the
// ranks sit under — not on the concrete nodes. Two allocations that place
// their rank blocks under the same leaf sequence (e.g. "8 nodes under one
// leaf, then 8 under another") produce identical per-step distinct leaf-pair
// sets. This file canonicalizes that observation:
//
//   ShapeKey         run-length encoding of the rank-order leaf sequence of
//                    an ordered node list, with leaves renamed to dense
//                    first-appearance slots (so the key is independent of
//                    which concrete leaves are used);
//   LeafCommProfile  the per-step distinct leaf-pair (slot) lists of a
//                    schedule lowered onto a shape, with same-node/same-leaf
//                    pair counts and per-step msize — everything Eq. 6 needs,
//                    computed once per (pattern, ranks_per_node, shape);
//   CommCache        the per-simulation-run memo of profiles, shared by
//                    every allocator and the simulator's pricing models
//                    (exactly one per run).
//
// Identical leaf-pair sets recur heavily across the steps of one schedule
// (e.g. a power-of-two alltoall on an allocation with 2^s nodes per leaf has
// only `leaves` distinct sets across its p-1 steps), so a profile stores the
// distinct sets once as "step classes" and each step as a reference to its
// class. Cost evaluation then does the expensive hop arithmetic per class
// and a multiply-add per step, making candidate pricing O(distinct leaf
// pairs) — independent of the rank count for a fixed leaf footprint.
//
// CommCache is NOT thread-safe: callers that share one across threads must
// synchronize externally (profiles can be pre-warmed and then read
// concurrently, since returned references are stable).
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "collectives/schedule.hpp"
#include "topology/tree.hpp"

namespace commsched {

/// Canonical shape of an ordered node list: the rank-order sequence of leaf
/// switches, run-length encoded, with leaves renamed to 0,1,2,... in order of
/// first appearance. Allocations under different concrete leaves (or on
/// different free nodes of the same leaves) that induce the same rank→leaf
/// structure compare equal and share one cached profile.
struct ShapeKey {
  /// (leaf slot, consecutive node count) runs, in rank order.
  std::vector<std::pair<std::int32_t, std::int32_t>> runs;
  int total_nodes = 0;
  int num_slots = 0;

  bool operator==(const ShapeKey&) const = default;
};

/// Canonicalize an ordered whole-node allocation (`nodes[r]` hosts rank
/// block r). Nodes must be distinct; rank expansion is expressed separately
/// via ranks_per_node when building profiles.
ShapeKey make_shape_key(const Tree& tree, std::span<const NodeId> nodes);

/// Stable 64-bit hash of a ShapeKey (FNV-1a over the run list and
/// dimensions). Used by CommCache's profile-key hashing and exercised
/// directly by the shape-key property/fuzz tests, which check that distinct
/// canonical shapes do not collide across large random samples.
std::uint64_t hash_value(const ShapeKey& key) noexcept;

/// One distinct per-step leaf-pair set: (slot a, slot b) with a <= b,
/// sorted lexicographically, each pair listed once. Same-node pairs are
/// excluded (they cost 0); same-leaf pairs appear as (s, s).
struct ProfileStepClass {
  std::vector<std::pair<std::int32_t, std::int32_t>> leaf_pairs;

  bool operator==(const ProfileStepClass&) const = default;
};

/// One schedule step lowered onto a shape: which class its leaf-pair set
/// belongs to, plus the original step parameters and bookkeeping counts
/// (used by the auditor's consistency re-derivation).
struct ProfileStep {
  std::int32_t cls = 0;           ///< index into LeafCommProfile::classes
  double msize = 0.0;             ///< per-pair bytes at this step
  std::int32_t repeat = 1;        ///< back-to-back repetitions
  std::int64_t rank_pairs = 0;      ///< raw pairs in the step
  std::int64_t same_node_pairs = 0; ///< pairs with both ranks on one node
  std::int64_t same_leaf_pairs = 0; ///< cross-node pairs under one leaf

  bool operator==(const ProfileStep&) const = default;
};

/// A schedule's communication structure reduced to leaf-slot granularity for
/// one (pattern, nprocs, ranks_per_node, shape). Consumed by
/// CostModel::candidate_cost and the CostModel delta session.
struct LeafCommProfile {
  int num_slots = 0;       ///< distinct leaves of the shape
  int nprocs = 0;          ///< total ranks = shape.total_nodes * ranks_per_node
  int ranks_per_node = 0;  ///< SLURM block distribution: rank r on node r/rpn
  double base_msize = 0.0;
  std::vector<ProfileStepClass> classes;
  std::vector<ProfileStep> steps;  ///< in schedule order

  bool operator==(const LeafCommProfile&) const = default;
};

/// Lower the schedule of `pattern` (at nprocs = shape.total_nodes *
/// ranks_per_node ranks, block-distributed) onto `shape`. Works on the
/// shape's runs, never on rank pairs: every schedule maps a rank to its
/// partner affinely on rank intervals, so a step costs O(runs) (O(runs log
/// p) for power-of-two alltoall). A non-power-of-two RD/RHVD at
/// ranks_per_node > 1 lowers on one run per node instead, O(nodes) per
/// step. Equal in every field to the rank-pair-by-rank-pair oracle in
/// tests/support/profile_oracle.hpp.
LeafCommProfile make_leaf_comm_profile(Pattern pattern, double base_msize,
                                       const ShapeKey& shape,
                                       int ranks_per_node);

/// Memoizing store for leaf-comm profiles. One instance is shared per
/// simulation run (simulator, its allocator, and its pricing models all
/// point at the same cache). base_msize is fixed at construction — profiles
/// depend on (pattern, ranks_per_node, shape) beyond it. Returned references
/// stay valid for the cache's lifetime (node-based map storage).
class CommCache {
 public:
  explicit CommCache(double base_msize) : base_msize_(base_msize) {}

  double base_msize() const noexcept { return base_msize_; }

  /// Leaf-comm profile for a canonical shape at `ranks_per_node` ranks per
  /// node. Uncapped: profiles never materialize rank pairs.
  const LeafCommProfile& profile(Pattern pattern, int ranks_per_node,
                                 const ShapeKey& shape);

  struct Stats {
    std::uint64_t profile_hits = 0;
    std::uint64_t profile_misses = 0;
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  struct ProfileKey {
    Pattern pattern;
    int ranks_per_node;
    ShapeKey shape;
    bool operator==(const ProfileKey&) const = default;
  };
  struct ProfileKeyHash {
    std::size_t operator()(const ProfileKey& key) const noexcept;
  };

  double base_msize_;
  Stats stats_;
  std::unordered_map<ProfileKey, LeafCommProfile, ProfileKeyHash> profiles_;
};

}  // namespace commsched
