#include "topology/tree.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace commsched {

// hot-path: no-alloc
SwitchId Tree::parent(SwitchId s) const {
  check_switch(s);
  return switches_[static_cast<std::size_t>(s)].parent;
}

// hot-path: no-alloc
std::span<const SwitchId> Tree::children(SwitchId s) const {
  check_switch(s);
  return switches_[static_cast<std::size_t>(s)].children;
}

// hot-path: no-alloc
std::span<const SwitchId> Tree::switches_at_level(int lvl) const {
  if (lvl < 1 || static_cast<std::size_t>(lvl) > levels_.size()) return {};
  return levels_[static_cast<std::size_t>(lvl) - 1];
}

// hot-path: no-alloc
std::span<const SwitchId> Tree::leaves_under(SwitchId s) const {
  check_switch(s);
  return switches_[static_cast<std::size_t>(s)].leaves_below;
}

// hot-path: no-alloc
std::span<const NodeId> Tree::nodes_of_leaf(SwitchId s) const {
  check_switch(s);
  COMMSCHED_ASSERT_MSG(is_leaf(s), "nodes_of_leaf on a non-leaf switch");
  return switches_[static_cast<std::size_t>(s)].nodes;
}

// hot-path: no-alloc
int Tree::node_count_under(SwitchId s) const {
  check_switch(s);
  return switches_[static_cast<std::size_t>(s)].subtree_nodes;
}

// hot-path: no-alloc
SwitchId Tree::leaf_lca(SwitchId la, SwitchId lb) const {
  const auto row = static_cast<std::size_t>(leaf_index(la));
  const auto col = static_cast<std::size_t>(leaf_index(lb));
  return leaf_lca_[row * static_cast<std::size_t>(leaf_count()) + col];
}

// hot-path: no-alloc
SwitchId Tree::lowest_common_switch(NodeId a, NodeId b) const {
  return leaf_lca(leaf_of(a), leaf_of(b));
}

// hot-path: no-alloc
int Tree::lca_level(NodeId a, NodeId b) const {
  return leaf_distance(leaf_of(a), leaf_of(b)) / 2;
}

// hot-path: no-alloc
int Tree::distance(NodeId a, NodeId b) const {
  if (a == b) return 0;
  return leaf_distance(leaf_of(a), leaf_of(b));
}

const std::string& Tree::node_name(NodeId n) const {
  COMMSCHED_ASSERT(n >= 0 && n < node_count());
  return node_names_[static_cast<std::size_t>(n)];
}

const std::string& Tree::switch_name(SwitchId s) const {
  check_switch(s);
  return switches_[static_cast<std::size_t>(s)].name;
}

std::optional<NodeId> Tree::node_by_name(const std::string& name) const {
  const auto it = node_index_.find(name);
  if (it == node_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<SwitchId> Tree::switch_by_name(const std::string& name) const {
  const auto it = switch_index_.find(name);
  if (it == switch_index_.end()) return std::nullopt;
  return it->second;
}

SwitchId TreeBuilder::add_leaf(std::string name,
                               std::vector<std::string> node_names) {
  COMMSCHED_ASSERT_MSG(!node_names.empty(), "a leaf switch needs nodes");
  const auto id = static_cast<SwitchId>(tree_.switches_.size());
  Tree::SwitchRec rec;
  rec.name = std::move(name);
  rec.level = 1;
  rec.subtree_nodes = static_cast<int>(node_names.size());
  for (auto& nn : node_names) {
    const auto nid = static_cast<NodeId>(tree_.node_names_.size());
    tree_.node_names_.push_back(std::move(nn));
    tree_.node_leaf_.push_back(id);
    rec.nodes.push_back(nid);
  }
  rec.leaves_below.push_back(id);
  tree_.switches_.push_back(std::move(rec));
  tree_.leaves_.push_back(id);
  has_parent_.push_back(false);
  return id;
}

SwitchId TreeBuilder::add_switch(std::string name,
                                 std::vector<SwitchId> child_switches) {
  COMMSCHED_ASSERT_MSG(!child_switches.empty(),
                       "an internal switch needs children");
  const auto id = static_cast<SwitchId>(tree_.switches_.size());
  Tree::SwitchRec rec;
  rec.name = std::move(name);
  int max_child_level = 0;
  for (const SwitchId c : child_switches) {
    COMMSCHED_ASSERT_MSG(c >= 0 && c < id, "child switch must already exist");
    COMMSCHED_ASSERT_MSG(!has_parent_[static_cast<std::size_t>(c)],
                         "child switch already has a parent");
    auto& child = tree_.switches_[static_cast<std::size_t>(c)];
    child.parent = id;
    has_parent_[static_cast<std::size_t>(c)] = true;
    max_child_level = std::max(max_child_level, child.level);
    rec.subtree_nodes += child.subtree_nodes;
    rec.leaves_below.insert(rec.leaves_below.end(), child.leaves_below.begin(),
                            child.leaves_below.end());
  }
  rec.level = max_child_level + 1;
  rec.children = std::move(child_switches);
  tree_.switches_.push_back(std::move(rec));
  has_parent_.push_back(false);
  return id;
}

Tree TreeBuilder::build() {
  COMMSCHED_ASSERT_MSG(!tree_.switches_.empty(), "empty topology");

  // Exactly one parentless switch: the root.
  SwitchId root = kInvalidSwitch;
  for (SwitchId s = 0; s < tree_.switch_count(); ++s) {
    if (!has_parent_[static_cast<std::size_t>(s)]) {
      COMMSCHED_ASSERT_MSG(root == kInvalidSwitch,
                           "topology has multiple roots (switch '" +
                               tree_.switches_[static_cast<std::size_t>(s)].name +
                               "' is disconnected)");
      root = s;
    }
  }
  COMMSCHED_ASSERT_MSG(root != kInvalidSwitch, "topology has a cycle");
  tree_.root_ = root;
  tree_.depth_ = tree_.switches_[static_cast<std::size_t>(root)].level;

  // Unique names; the maps double as the O(1) by-name lookup indices.
  tree_.switch_index_.reserve(tree_.switches_.size());
  for (SwitchId s = 0; s < tree_.switch_count(); ++s) {
    const auto& sw = tree_.switches_[static_cast<std::size_t>(s)];
    COMMSCHED_ASSERT_MSG(tree_.switch_index_.emplace(sw.name, s).second,
                         "duplicate switch name '" + sw.name + "'");
  }
  tree_.node_index_.reserve(tree_.node_names_.size());
  for (NodeId n = 0; n < tree_.node_count(); ++n) {
    const auto& nn = tree_.node_names_[static_cast<std::size_t>(n)];
    COMMSCHED_ASSERT_MSG(tree_.node_index_.emplace(nn, n).second,
                         "duplicate node name '" + nn + "'");
  }

  // The root must span every node.
  COMMSCHED_ASSERT_MSG(
      tree_.switches_[static_cast<std::size_t>(root)].subtree_nodes ==
          tree_.node_count(),
      "root does not span all nodes — disconnected topology");

  // Per-level switch lists (id order), so the allocators' level scans are
  // allocation-free span iterations.
  tree_.levels_.assign(static_cast<std::size_t>(tree_.depth_), {});
  for (SwitchId s = 0; s < tree_.switch_count(); ++s) {
    const int lvl = tree_.switches_[static_cast<std::size_t>(s)].level;
    COMMSCHED_ASSERT_MSG(lvl >= 1 && lvl <= tree_.depth_,
                         "switch level outside [1, depth]");
    tree_.levels_[static_cast<std::size_t>(lvl) - 1].push_back(s);
  }

  // Precompute the dense leaf×leaf LCA/distance tables. Root-first ancestor
  // chains are walked once per leaf pair here — O(L² · depth) at build time —
  // so every later pairwise query is a single array load.
  const auto n_leaves = tree_.leaves_.size();
  tree_.leaf_index_.assign(tree_.switches_.size(), -1);
  for (std::size_t i = 0; i < n_leaves; ++i)
    tree_.leaf_index_[static_cast<std::size_t>(tree_.leaves_[i])] =
        static_cast<std::int32_t>(i);
  std::vector<std::vector<SwitchId>> chains(n_leaves);
  for (std::size_t i = 0; i < n_leaves; ++i) {
    auto& chain = chains[i];
    for (SwitchId s = tree_.leaves_[i]; s != kInvalidSwitch;
         s = tree_.switches_[static_cast<std::size_t>(s)].parent)
      chain.push_back(s);
    std::reverse(chain.begin(), chain.end());
  }
  tree_.leaf_lca_.assign(n_leaves * n_leaves, kInvalidSwitch);
  tree_.leaf_dist_.assign(n_leaves * n_leaves, 0);
  for (std::size_t i = 0; i < n_leaves; ++i) {
    // Diagonal: distinct nodes on one leaf meet at the leaf itself (level 1).
    tree_.leaf_lca_[i * n_leaves + i] = tree_.leaves_[i];
    tree_.leaf_dist_[i * n_leaves + i] = 2;
    for (std::size_t j = i + 1; j < n_leaves; ++j) {
      const auto& ca = chains[i];
      const auto& cb = chains[j];
      const std::size_t common = std::min(ca.size(), cb.size());
      SwitchId lca = root;
      for (std::size_t d = 0; d < common; ++d) {
        if (ca[d] != cb[d]) break;
        lca = ca[d];
      }
      const auto dist = static_cast<std::int16_t>(
          2 * tree_.switches_[static_cast<std::size_t>(lca)].level);
      tree_.leaf_lca_[i * n_leaves + j] = lca;
      tree_.leaf_lca_[j * n_leaves + i] = lca;
      tree_.leaf_dist_[i * n_leaves + j] = dist;
      tree_.leaf_dist_[j * n_leaves + i] = dist;
    }
  }
  return std::move(tree_);
}

}  // namespace commsched
