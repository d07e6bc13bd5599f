#include "cluster/state.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace commsched {

ClusterState::ClusterState(const Tree& tree) : tree_(&tree) {
  node_owner_.assign(static_cast<std::size_t>(tree.node_count()), kInvalidJob);
  leaf_busy_.assign(static_cast<std::size_t>(tree.switch_count()), 0);
  leaf_comm_.assign(static_cast<std::size_t>(tree.switch_count()), 0);
  leaf_io_.assign(static_cast<std::size_t>(tree.switch_count()), 0);
  switch_free_.resize(static_cast<std::size_t>(tree.switch_count()));
  for (SwitchId s = 0; s < tree.switch_count(); ++s)
    switch_free_[static_cast<std::size_t>(s)] = tree.node_count_under(s);
  free_total_ = tree.node_count();
  leaf_load_.assign(static_cast<std::size_t>(tree.switch_count()), 0);
  switch_load_.assign(static_cast<std::size_t>(tree.switch_count()), 0);

  // Per-leaf free index: one contiguous segment per leaf, initially every
  // attached node (all free), kept sorted ascending.
  free_list_.reserve(static_cast<std::size_t>(tree.node_count()));
  leaf_off_.assign(static_cast<std::size_t>(tree.switch_count()), -1);
  for (const SwitchId leaf : tree.leaves()) {
    leaf_off_[static_cast<std::size_t>(leaf)] =
        static_cast<std::int32_t>(free_list_.size());
    const auto nodes = tree.nodes_of_leaf(leaf);
    free_list_.insert(free_list_.end(), nodes.begin(), nodes.end());
    std::sort(free_list_.end() - static_cast<std::ptrdiff_t>(nodes.size()),
              free_list_.end());
  }
  COMMSCHED_ASSERT_EQ_MSG(free_list_.size(),
                          static_cast<std::size_t>(tree.node_count()),
                          "every node must hang off exactly one leaf");

  stamp_.assign(static_cast<std::size_t>(tree.node_count()), 0);

  node_leaf_.resize(static_cast<std::size_t>(tree.node_count()));
  for (NodeId n = 0; n < tree.node_count(); ++n)
    node_leaf_[static_cast<std::size_t>(n)] = tree.leaf_of(n);
  groups_.reserve(static_cast<std::size_t>(tree.leaf_count()));
  grouped_.resize(static_cast<std::size_t>(tree.node_count()));
  leaf_group_.assign(static_cast<std::size_t>(tree.switch_count()), -1);
}

// hot-path: no-alloc
void ClusterState::group_by_leaf(std::span<const NodeId> nodes) {
  // One pass counts each leaf's nodes run by run and checks whether each
  // leaf's nodes form one ascending run. The allocators list them that way
  // (they take a leaf's nodes from its ascending free index), and then the
  // groups point into `nodes` and nothing is copied.
  groups_.clear();
  bool runs = true;
  SwitchId run_leaf = kInvalidSwitch;
  std::int32_t run_group = -1;
  std::size_t run_start = 0;
  const auto close_run = [&](std::size_t end) {
    if (run_group >= 0)
      groups_[static_cast<std::size_t>(run_group)].count +=
          static_cast<std::int32_t>(end - run_start);
  };
  NodeId prev = -1;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId n = nodes[i];
    const SwitchId leaf = node_leaf_[static_cast<std::size_t>(n)];
    if (leaf == run_leaf) {
      runs = runs && n > prev;
    } else {
      close_run(i);
      std::int32_t& g = leaf_group_[static_cast<std::size_t>(leaf)];
      if (g < 0) {
        g = static_cast<std::int32_t>(groups_.size());
        // contract-trusted: no-alloc: capacity reserved at construction for
        // one group per leaf
        groups_.push_back({leaf, 0, nodes.data() + i});
      } else {
        runs = false;  // the leaf's nodes are split over several runs
      }
      run_leaf = leaf;
      run_group = g;
      run_start = i;
    }
    prev = n;
  }
  close_run(nodes.size());
  for (const LeafGroup& g : groups_)
    leaf_group_[static_cast<std::size_t>(g.leaf)] = -1;
  if (runs) return;

  // Otherwise scatter the nodes leaf by leaf into grouped_ (leaf_group_
  // holds each leaf's write cursor) and sort a leaf's share only if the
  // caller listed it out of order.
  std::int32_t begin = 0;
  for (LeafGroup& g : groups_) {
    g.first = grouped_.data() + begin;
    leaf_group_[static_cast<std::size_t>(g.leaf)] = begin;
    begin += g.count;
  }
  for (const NodeId n : nodes) {
    std::int32_t& pos = leaf_group_[static_cast<std::size_t>(
        node_leaf_[static_cast<std::size_t>(n)])];
    grouped_[static_cast<std::size_t>(pos++)] = n;
  }
  for (const LeafGroup& g : groups_) {
    std::int32_t& end = leaf_group_[static_cast<std::size_t>(g.leaf)];
    NodeId* last = grouped_.data() + end;
    if (!std::is_sorted(last - g.count, last)) std::sort(last - g.count, last);
    end = -1;
  }
}

// hot-path: no-alloc
void ClusterState::transition(const JobRec& rec, int delta) {
  const JobId new_owner = delta > 0 ? rec.id : kInvalidJob;
  for (const NodeId n : rec.nodes)
    node_owner_[static_cast<std::size_t>(n)] = new_owner;

  group_by_leaf(rec.nodes);
  for (const LeafGroup& g : groups_) {
    const auto leaf = static_cast<std::size_t>(g.leaf);
    NodeId* seg = free_list_.data() + leaf_off_[leaf];
    const int leaf_size = leaf_nodes(g.leaf);
    const int free_before = leaf_size - leaf_busy_[leaf];
    const NodeId* moved = g.first;
    if (delta > 0) {
      // Compact the job's nodes out of the ascending free prefix in one
      // pass; every entry that stays must still be free.
      int kept = 0;
      int taken = 0;
      for (int i = 0; i < free_before; ++i) {
        const NodeId n = seg[i];
        if (taken < g.count && n == moved[taken]) {
          ++taken;
          continue;
        }
        COMMSCHED_ASSERT_MSG(
            node_owner_[static_cast<std::size_t>(n)] == kInvalidJob,
            "free index out of sync: listed node is allocated");
        seg[kept++] = n;
      }
      COMMSCHED_ASSERT_EQ_MSG(taken, g.count,
                              "free index out of sync: allocated node not "
                              "listed as free");
    } else {
      // Merge the job's nodes back in from the back, so every entry moves
      // at most once: O(free_before + count).
      COMMSCHED_ASSERT_LE_MSG(free_before + g.count, leaf_size,
                              "free index out of sync: leaf overfilled");
      int i = free_before - 1;
      int w = free_before + g.count - 1;
      for (int j = g.count - 1; j >= 0; --w) {
        if (i >= 0 && seg[i] > moved[j]) {
          seg[w] = seg[i--];
        } else {
          COMMSCHED_ASSERT_MSG(i < 0 || seg[i] != moved[j],
                               "free index out of sync: released node "
                               "already listed as free");
          seg[w] = moved[j--];
        }
      }
    }

    const int busy_delta = delta * g.count;
    const LoadUnits load_delta = rec.load * busy_delta;
    leaf_busy_[leaf] += busy_delta;
    if (rec.comm_intensive) leaf_comm_[leaf] += busy_delta;
    if (rec.io_intensive) leaf_io_[leaf] += busy_delta;
    leaf_load_[leaf] += load_delta;
    for (SwitchId s = g.leaf; s != kInvalidSwitch; s = tree_->parent(s)) {
      switch_free_[static_cast<std::size_t>(s)] -= busy_delta;
      switch_load_[static_cast<std::size_t>(s)] += load_delta;
    }
    free_total_ -= busy_delta;
    load_total_ += load_delta;
  }
}

// hot-path: no-alloc
std::int32_t ClusterState::find_slot(JobId job) const {
  if (job >= 0 && job < kDenseJobIds) {
    const auto idx = static_cast<std::size_t>(job);
    if (idx >= dense_slot_.size()) return -1;
    return dense_slot_[idx];
  }
  const auto it = sparse_slot_.find(job);
  return it == sparse_slot_.end() ? -1 : it->second;
}

// hot-path: no-alloc
std::int32_t ClusterState::claim_slot(JobId job) {
  std::int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::int32_t>(job_pool_.size());
    // contract-trusted: no-alloc: slot pool grows to the peak live-job
    // count, then slots recycle through free_slots_
    job_pool_.emplace_back();
  }
  if (job >= 0 && job < kDenseJobIds) {
    const auto idx = static_cast<std::size_t>(job);
    // contract-trusted: no-alloc: dense id->slot table grows once up to
    // the largest dense job id, then stays
    if (idx >= dense_slot_.size()) dense_slot_.resize(idx + 1, -1);
    dense_slot_[idx] = slot;
  } else {
    // contract-trusted: no-alloc: out-of-range ids are rare (SWF traces
    // stay under kDenseJobIds); bounded by live sparse jobs
    sparse_slot_.emplace(job, slot);
  }
  return slot;
}

// hot-path: no-alloc
void ClusterState::drop_slot(JobId job, std::int32_t slot) {
  if (job >= 0 && job < kDenseJobIds)
    dense_slot_[static_cast<std::size_t>(job)] = -1;
  else
    sparse_slot_.erase(job);
  JobRec& rec = job_pool_[static_cast<std::size_t>(slot)];
  rec.live = false;
  rec.id = kInvalidJob;
  rec.nodes.clear();  // capacity survives for the next occupant
  // contract-trusted: no-alloc: free list capacity is bounded by the
  // peak live-job count the pool already reached
  free_slots_.push_back(slot);
}

// hot-path: no-alloc
void ClusterState::allocate(JobId job, bool comm_intensive,
                            std::span<const NodeId> nodes,
                            bool io_intensive, LoadUnits comm_load) {
  COMMSCHED_ASSERT_MSG(job != kInvalidJob, "invalid job id");
  COMMSCHED_ASSERT_MSG(find_slot(job) < 0, "job id already allocated");
  COMMSCHED_ASSERT_MSG(!nodes.empty(), "allocation must contain nodes");
  COMMSCHED_ASSERT_GE_MSG(comm_load, 0, "negative communication load");
  // Check before mutating so a failed precondition leaves state untouched.
  // Epoch stamping replaces a per-call hash set for the duplicate check.
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  const NodeId node_count = tree_->node_count();
  for (const NodeId n : nodes) {
    COMMSCHED_ASSERT_MSG(n >= 0 && n < node_count, "node id out of range");
    std::uint32_t& stamp = stamp_[static_cast<std::size_t>(n)];
    COMMSCHED_ASSERT_MSG(stamp != epoch_, "duplicate node in allocation");
    stamp = epoch_;
    COMMSCHED_ASSERT_MSG(node_owner_[static_cast<std::size_t>(n)] ==
                             kInvalidJob,
                         "node already allocated");
  }
  const std::int32_t slot = claim_slot(job);
  JobRec& rec = job_pool_[static_cast<std::size_t>(slot)];
  rec.id = job;
  rec.live = true;
  rec.comm_intensive = comm_intensive;
  rec.io_intensive = io_intensive;
  rec.load = comm_load;
  rec.nodes.assign(nodes.begin(), nodes.end());
  transition(rec, +1);
  ++live_jobs_;
}

// hot-path: no-alloc
void ClusterState::release_into(JobId job, std::vector<NodeId>& out) {
  const std::int32_t slot = find_slot(job);
  COMMSCHED_ASSERT_MSG(slot >= 0, "releasing unknown job");
  JobRec& rec = job_pool_[static_cast<std::size_t>(slot)];
  // contract-trusted: no-alloc: caller scratch reuses reserved capacity
  out.assign(rec.nodes.begin(), rec.nodes.end());
  transition(rec, -1);
  drop_slot(job, slot);
  --live_jobs_;
}

std::vector<NodeId> ClusterState::release(JobId job) {
  std::vector<NodeId> freed;
  release_into(job, freed);
  return freed;
}

// hot-path: no-alloc
bool ClusterState::is_free(NodeId n) const { return owner(n) == kInvalidJob; }

// hot-path: no-alloc
JobId ClusterState::owner(NodeId n) const {
  COMMSCHED_ASSERT_MSG(n >= 0 && n < tree_->node_count(), "node id out of range");
  return node_owner_[static_cast<std::size_t>(n)];
}

bool ClusterState::has_job(JobId job) const { return find_slot(job) >= 0; }

// hot-path: no-alloc
std::span<const NodeId> ClusterState::job_nodes(JobId job) const {
  const std::int32_t slot = find_slot(job);
  COMMSCHED_ASSERT_MSG(slot >= 0, "unknown job");
  return job_pool_[static_cast<std::size_t>(slot)].nodes;
}

bool ClusterState::job_is_comm(JobId job) const {
  const std::int32_t slot = find_slot(job);
  COMMSCHED_ASSERT_MSG(slot >= 0, "unknown job");
  return job_pool_[static_cast<std::size_t>(slot)].comm_intensive;
}

// hot-path: no-alloc
LoadUnits ClusterState::job_load(JobId job) const {
  const std::int32_t slot = find_slot(job);
  COMMSCHED_ASSERT_MSG(slot >= 0, "unknown job");
  return job_pool_[static_cast<std::size_t>(slot)].load;
}

// hot-path: no-alloc
int ClusterState::leaf_nodes(SwitchId leaf) const {
  COMMSCHED_ASSERT_MSG(tree_->is_leaf(leaf), "not a leaf switch");
  return static_cast<int>(tree_->nodes_of_leaf(leaf).size());
}

// hot-path: no-alloc
int ClusterState::leaf_busy(SwitchId leaf) const {
  COMMSCHED_ASSERT_MSG(tree_->is_leaf(leaf), "not a leaf switch");
  return leaf_busy_[static_cast<std::size_t>(leaf)];
}

// hot-path: no-alloc
int ClusterState::leaf_comm(SwitchId leaf) const {
  COMMSCHED_ASSERT_MSG(tree_->is_leaf(leaf), "not a leaf switch");
  return leaf_comm_[static_cast<std::size_t>(leaf)];
}

// hot-path: no-alloc
int ClusterState::leaf_io(SwitchId leaf) const {
  COMMSCHED_ASSERT_MSG(tree_->is_leaf(leaf), "not a leaf switch");
  return leaf_io_[static_cast<std::size_t>(leaf)];
}

// hot-path: no-alloc
int ClusterState::free_under(SwitchId s) const {
  COMMSCHED_ASSERT(s >= 0 && s < tree_->switch_count());
  return switch_free_[static_cast<std::size_t>(s)];
}

// hot-path: no-alloc
LoadUnits ClusterState::leaf_load(SwitchId leaf) const {
  COMMSCHED_ASSERT_MSG(tree_->is_leaf(leaf), "not a leaf switch");
  return leaf_load_[static_cast<std::size_t>(leaf)];
}

// hot-path: no-alloc
LoadUnits ClusterState::load_under(SwitchId s) const {
  COMMSCHED_ASSERT(s >= 0 && s < tree_->switch_count());
  return switch_load_[static_cast<std::size_t>(s)];
}

std::vector<NodeId> ClusterState::free_nodes_of_leaf(SwitchId leaf) const {
  const std::span<const NodeId> seg = free_leaf_span(leaf);
  return {seg.begin(), seg.end()};
}

// hot-path: no-alloc
std::span<const NodeId> ClusterState::free_leaf_span(SwitchId leaf) const {
  COMMSCHED_ASSERT_MSG(tree_->is_leaf(leaf), "not a leaf switch");
  const std::int32_t off = leaf_off_[static_cast<std::size_t>(leaf)];
  return {free_list_.data() + off,
          static_cast<std::size_t>(leaf_free(leaf))};
}

void ClusterState::validate() const {
  // Recompute every counter from the ground-truth per-node owner table.
  std::vector<int> busy(static_cast<std::size_t>(tree_->switch_count()), 0);
  std::vector<int> comm(static_cast<std::size_t>(tree_->switch_count()), 0);
  std::vector<int> io(static_cast<std::size_t>(tree_->switch_count()), 0);
  std::vector<LoadUnits> load(static_cast<std::size_t>(tree_->switch_count()),
                              0);
  int total_busy = 0;
  LoadUnits total_load = 0;
  for (NodeId n = 0; n < tree_->node_count(); ++n) {
    const JobId j = node_owner_[static_cast<std::size_t>(n)];
    if (j == kInvalidJob) continue;
    const std::int32_t slot = find_slot(j);
    COMMSCHED_ASSERT_MSG(slot >= 0, "node owned by unknown job");
    const JobRec& rec = job_pool_[static_cast<std::size_t>(slot)];
    COMMSCHED_ASSERT_MSG(rec.live && rec.id == j,
                         "job slot table out of sync");
    COMMSCHED_ASSERT_MSG(
        std::find(rec.nodes.begin(), rec.nodes.end(), n) != rec.nodes.end(),
        "node/job ownership tables disagree");
    const SwitchId leaf = tree_->leaf_of(n);
    ++busy[static_cast<std::size_t>(leaf)];
    if (rec.comm_intensive) ++comm[static_cast<std::size_t>(leaf)];
    if (rec.io_intensive) ++io[static_cast<std::size_t>(leaf)];
    COMMSCHED_ASSERT_GE_MSG(rec.load, 0, "job carries a negative load");
    load[static_cast<std::size_t>(leaf)] += rec.load;
    total_load += rec.load;
    ++total_busy;
  }
  COMMSCHED_ASSERT_EQ(free_total_, tree_->node_count() - total_busy);
  COMMSCHED_ASSERT_EQ(load_total_, total_load);
  for (const SwitchId leaf : tree_->leaves()) {
    COMMSCHED_ASSERT_EQ(leaf_busy_[static_cast<std::size_t>(leaf)],
                        busy[static_cast<std::size_t>(leaf)]);
    COMMSCHED_ASSERT_EQ(leaf_comm_[static_cast<std::size_t>(leaf)],
                        comm[static_cast<std::size_t>(leaf)]);
    COMMSCHED_ASSERT_EQ(leaf_io_[static_cast<std::size_t>(leaf)],
                        io[static_cast<std::size_t>(leaf)]);
    COMMSCHED_ASSERT_EQ(leaf_load_[static_cast<std::size_t>(leaf)],
                        load[static_cast<std::size_t>(leaf)]);
  }
  for (SwitchId s = 0; s < tree_->switch_count(); ++s) {
    int free_sub = 0;
    LoadUnits load_sub = 0;
    for (const SwitchId leaf : tree_->leaves_under(s)) {
      free_sub += static_cast<int>(tree_->nodes_of_leaf(leaf).size()) -
                  busy[static_cast<std::size_t>(leaf)];
      load_sub += load[static_cast<std::size_t>(leaf)];
    }
    COMMSCHED_ASSERT_EQ(switch_free_[static_cast<std::size_t>(s)], free_sub);
    COMMSCHED_ASSERT_EQ(switch_load_[static_cast<std::size_t>(s)], load_sub);
  }

  // Per-leaf free index: the packed prefix must list exactly the leaf's
  // free nodes, sorted ascending, at the leaf's recorded offset.
  for (const SwitchId leaf : tree_->leaves()) {
    const std::int32_t off = leaf_off_[static_cast<std::size_t>(leaf)];
    COMMSCHED_ASSERT_MSG(off >= 0, "leaf missing from the free index");
    const int expect_free =
        static_cast<int>(tree_->nodes_of_leaf(leaf).size()) -
        busy[static_cast<std::size_t>(leaf)];
    const std::span<const NodeId> seg{
        free_list_.data() + off, static_cast<std::size_t>(expect_free)};
    NodeId prev = -1;
    for (const NodeId n : seg) {
      COMMSCHED_ASSERT_MSG(n > prev,
                           "free index not sorted ascending / duplicated");
      COMMSCHED_ASSERT_MSG(tree_->leaf_of(n) == leaf,
                           "free index lists a node of another leaf");
      COMMSCHED_ASSERT_MSG(node_owner_[static_cast<std::size_t>(n)] ==
                               kInvalidJob,
                           "free index lists an allocated node");
      prev = n;
    }
  }

  std::size_t nodes_in_jobs = 0;
  std::size_t live = 0;
  for (const JobRec& rec : job_pool_) {
    if (!rec.live) continue;
    ++live;
    nodes_in_jobs += rec.nodes.size();
    COMMSCHED_ASSERT_EQ_MSG(find_slot(rec.id),
                            static_cast<std::int32_t>(&rec - job_pool_.data()),
                            "job id table does not point at the live slot");
  }
  COMMSCHED_ASSERT_EQ(live, live_jobs_);
  COMMSCHED_ASSERT_EQ(nodes_in_jobs, static_cast<std::size_t>(total_busy));
}

}  // namespace commsched
