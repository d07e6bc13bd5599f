// Tree / fat-tree network topology model (SLURM topology/tree equivalent).
//
// The model matches the paper's abstraction (§3.2): compute nodes hang off
// level-1 "leaf" switches; higher-level switches connect switches below them;
// a single root spans the machine.  Every structural query the allocators and
// the cost model need is answered here: leaf membership, lowest common
// switch, the paper's distance metric d(i,j) = 2 * level(LCA) (Eq. 4), and
// subtree node counts for the lowest-level-switch search.
//
// Node and switch handles are dense indices (NodeId / SwitchId), assigned in
// construction order; names are retained for topology.conf round-trips.
//
// Pairwise queries are O(1): build() precomputes a dense leaf×leaf table of
// lowest-common-switch ids and Eq. 4 distances (O(L²) memory, L = leaf
// count; big-leaf machines keep L in the low hundreds), so the cost model's
// hot path never walks ancestor chains. Name lookups are hash maps.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/assert.hpp"

namespace commsched {

using NodeId = std::int32_t;
using SwitchId = std::int32_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr SwitchId kInvalidSwitch = -1;

/// Immutable tree topology. Construct via TreeBuilder or topology-conf I/O.
class Tree {
 public:
  int node_count() const noexcept { return static_cast<int>(node_names_.size()); }
  int switch_count() const noexcept { return static_cast<int>(switches_.size()); }
  int leaf_count() const noexcept { return static_cast<int>(leaves_.size()); }

  /// Number of switch levels; leaves are level 1, the root is level `depth()`.
  int depth() const noexcept { return depth_; }

  SwitchId root() const noexcept { return root_; }

  // hot-path: no-alloc
  bool is_leaf(SwitchId s) const { return level(s) == 1; }
  int level(SwitchId s) const;
  SwitchId parent(SwitchId s) const;  ///< kInvalidSwitch for the root
  std::span<const SwitchId> children(SwitchId s) const;  ///< empty for leaves

  /// All leaf switches, in id order.
  std::span<const SwitchId> leaves() const noexcept { return leaves_; }

  /// All switches with the given level (1 = leaves), precomputed in build()
  /// so the allocators' per-select lowest-level-switch search allocates
  /// nothing. Levels outside [1, depth()] yield an empty span.
  std::span<const SwitchId> switches_at_level(int lvl) const;

  /// Leaf switches in the subtree rooted at `s` (s itself if a leaf).
  std::span<const SwitchId> leaves_under(SwitchId s) const;

  /// Compute nodes attached to leaf switch `s`. Requires is_leaf(s).
  std::span<const NodeId> nodes_of_leaf(SwitchId s) const;

  /// Total compute nodes in the subtree rooted at `s`.
  int node_count_under(SwitchId s) const;

  /// Leaf switch a node is attached to.
  SwitchId leaf_of(NodeId n) const;

  /// Dense index of a leaf switch in leaves() order, in [0, leaf_count()).
  /// Requires is_leaf(s).
  int leaf_index(SwitchId s) const;

  /// Lowest common switch of two leaves (the leaf itself when la == lb).
  /// O(1) table lookup.
  SwitchId leaf_lca(SwitchId la, SwitchId lb) const;

  /// Paper Eq. 4 distance between two *distinct* nodes attached to leaves
  /// `la` and `lb` (2 when la == lb: the shared leaf is the LCA). O(1).
  int leaf_distance(SwitchId la, SwitchId lb) const;

  /// Lowest common switch of two nodes (their shared leaf if co-located).
  SwitchId lowest_common_switch(NodeId a, NodeId b) const;

  /// Level of the lowest common switch (1 when both are on the same leaf).
  int lca_level(NodeId a, NodeId b) const;

  /// Paper Eq. 4: d(i,j) = 2 * level(lowest common switch); 0 when i == j.
  int distance(NodeId a, NodeId b) const;

  const std::string& node_name(NodeId n) const;
  const std::string& switch_name(SwitchId s) const;
  std::optional<NodeId> node_by_name(const std::string& name) const;
  std::optional<SwitchId> switch_by_name(const std::string& name) const;

 private:
  friend class TreeBuilder;
  Tree() = default;

  void check_switch(SwitchId s) const;

  struct SwitchRec {
    std::string name;
    SwitchId parent = kInvalidSwitch;
    int level = 1;
    std::vector<SwitchId> children;      // child switches (empty for leaves)
    std::vector<NodeId> nodes;           // directly attached (leaves only)
    std::vector<SwitchId> leaves_below;  // descendant leaves (self if leaf)
    int subtree_nodes = 0;
  };

  std::vector<SwitchRec> switches_;
  std::vector<SwitchId> leaves_;
  // levels_[lvl - 1] = switches at that level, id order (built in build()).
  std::vector<std::vector<SwitchId>> levels_;
  std::vector<std::string> node_names_;
  std::vector<SwitchId> node_leaf_;
  // Per switch: dense leaf index, or -1 for internal switches.
  std::vector<std::int32_t> leaf_index_;
  // Dense leaf×leaf tables, indexed [leaf_index(la) * leaf_count() +
  // leaf_index(lb)]: lowest common switch and Eq. 4 distance. O(L²) memory
  // buys O(1) pairwise queries (the cost model's hot path).
  std::vector<SwitchId> leaf_lca_;
  std::vector<std::int16_t> leaf_dist_;
  std::unordered_map<std::string, NodeId> node_index_;
  std::unordered_map<std::string, SwitchId> switch_index_;
  SwitchId root_ = kInvalidSwitch;
  int depth_ = 0;
};

// The O(1) accessors the cost kernel and the allocators call per node or
// per leaf pair are defined here so they inline.

// hot-path: no-alloc
inline void Tree::check_switch(SwitchId s) const {
  COMMSCHED_ASSERT_MSG(s >= 0 && s < switch_count(), "switch id out of range");
}

// hot-path: no-alloc
inline int Tree::level(SwitchId s) const {
  check_switch(s);
  return switches_[static_cast<std::size_t>(s)].level;
}

// hot-path: no-alloc
inline SwitchId Tree::leaf_of(NodeId n) const {
  COMMSCHED_ASSERT_MSG(n >= 0 && n < node_count(), "node id out of range");
  return node_leaf_[static_cast<std::size_t>(n)];
}

// hot-path: no-alloc
inline int Tree::leaf_index(SwitchId s) const {
  check_switch(s);
  const std::int32_t idx = leaf_index_[static_cast<std::size_t>(s)];
  COMMSCHED_ASSERT_MSG(idx >= 0, "leaf_index on a non-leaf switch");
  return idx;
}

// hot-path: no-alloc
inline int Tree::leaf_distance(SwitchId la, SwitchId lb) const {
  const auto row = static_cast<std::size_t>(leaf_index(la));
  const auto col = static_cast<std::size_t>(leaf_index(lb));
  return leaf_dist_[row * static_cast<std::size_t>(leaf_count()) + col];
}

/// Incremental construction of a Tree. Leaves must be added before any
/// internal switch that references them; build() validates the result.
class TreeBuilder {
 public:
  /// Add a leaf switch with its attached node names. Node ids are assigned
  /// in the order nodes are added across all leaves.
  SwitchId add_leaf(std::string name, std::vector<std::string> node_names);

  /// Add an internal switch over previously added child switches.
  SwitchId add_switch(std::string name, std::vector<SwitchId> child_switches);

  /// Finalize. Validates: a unique root exists, every non-root switch has a
  /// parent, levels are consistent, node/switch names are unique, every leaf
  /// has at least one node. Throws InvariantError on violation.
  Tree build();

 private:
  Tree tree_;
  std::vector<bool> has_parent_;
};

}  // namespace commsched
