#include "cluster/state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

#include "topology/builders.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace commsched {

// Friend of ClusterState: corrupts one internal counter at a time so the
// validate() failure paths can be proven to fire (ISSUE 2 satellite).
struct ClusterStateTestPeer {
  static void corrupt_leaf_busy(ClusterState& s, SwitchId leaf, int delta) {
    s.leaf_busy_[static_cast<std::size_t>(leaf)] += delta;
  }
  static void corrupt_leaf_comm(ClusterState& s, SwitchId leaf, int delta) {
    s.leaf_comm_[static_cast<std::size_t>(leaf)] += delta;
  }
  static void corrupt_leaf_io(ClusterState& s, SwitchId leaf, int delta) {
    s.leaf_io_[static_cast<std::size_t>(leaf)] += delta;
  }
  static void corrupt_switch_free(ClusterState& s, SwitchId sw, int delta) {
    s.switch_free_[static_cast<std::size_t>(sw)] += delta;
  }
  static void corrupt_free_total(ClusterState& s, int delta) {
    s.free_total_ += delta;
  }
  static void corrupt_owner(ClusterState& s, NodeId n, JobId owner) {
    s.node_owner_[static_cast<std::size_t>(n)] = owner;
  }
  static void drop_job_node(ClusterState& s, JobId job) {
    const std::int32_t slot = s.find_slot(job);
    COMMSCHED_ASSERT_GE_MSG(slot, 0, "corrupting a job that is not live");
    s.job_pool_[static_cast<std::size_t>(slot)].nodes.pop_back();
  }
  // Swap the first two entries of a leaf's free index (breaks the ascending
  // order without touching any counter). Requires leaf_free(leaf) >= 2.
  static void corrupt_free_index_order(ClusterState& s, SwitchId leaf) {
    const auto off =
        static_cast<std::size_t>(s.leaf_off_[static_cast<std::size_t>(leaf)]);
    std::swap(s.free_list_[off], s.free_list_[off + 1]);
  }
  // Overwrite the first free-index entry of a leaf with an arbitrary node.
  static void corrupt_free_index_entry(ClusterState& s, SwitchId leaf,
                                       NodeId n) {
    const auto off =
        static_cast<std::size_t>(s.leaf_off_[static_cast<std::size_t>(leaf)]);
    s.free_list_[off] = n;
  }
  static void corrupt_leaf_load(ClusterState& s, SwitchId leaf,
                                LoadUnits delta) {
    s.leaf_load_[static_cast<std::size_t>(leaf)] += delta;
  }
  static void corrupt_switch_load(ClusterState& s, SwitchId sw,
                                  LoadUnits delta) {
    s.switch_load_[static_cast<std::size_t>(sw)] += delta;
  }
  static void corrupt_load_total(ClusterState& s, LoadUnits delta) {
    s.load_total_ += delta;
  }
};

namespace {

class ClusterStateTest : public ::testing::Test {
 protected:
  ClusterStateTest() : tree_(make_figure2_tree()), state_(tree_) {}
  Tree tree_;
  ClusterState state_;
};

TEST_F(ClusterStateTest, StartsAllFree) {
  EXPECT_EQ(state_.total_free(), 8);
  EXPECT_EQ(state_.job_count(), 0u);
  for (NodeId n = 0; n < 8; ++n) {
    EXPECT_TRUE(state_.is_free(n));
    EXPECT_EQ(state_.owner(n), kInvalidJob);
  }
  for (const SwitchId leaf : tree_.leaves()) {
    EXPECT_EQ(state_.leaf_busy(leaf), 0);
    EXPECT_EQ(state_.leaf_comm(leaf), 0);
    EXPECT_EQ(state_.leaf_free(leaf), 4);
    EXPECT_EQ(state_.leaf_nodes(leaf), 4);
  }
}

TEST_F(ClusterStateTest, AllocateUpdatesCounters) {
  const std::vector<NodeId> nodes{0, 1, 4};
  state_.allocate(7, /*comm_intensive=*/true, nodes);
  EXPECT_EQ(state_.total_free(), 5);
  EXPECT_FALSE(state_.is_free(0));
  EXPECT_EQ(state_.owner(0), 7);
  const SwitchId s0 = *tree_.switch_by_name("s0");
  const SwitchId s1 = *tree_.switch_by_name("s1");
  EXPECT_EQ(state_.leaf_busy(s0), 2);
  EXPECT_EQ(state_.leaf_comm(s0), 2);
  EXPECT_EQ(state_.leaf_busy(s1), 1);
  EXPECT_EQ(state_.leaf_comm(s1), 1);
  EXPECT_EQ(state_.free_under(tree_.root()), 5);
  EXPECT_EQ(state_.free_under(s0), 2);
  state_.validate();
}

TEST_F(ClusterStateTest, LoadAccumulatorsTrackAllocations) {
  const SwitchId s0 = *tree_.switch_by_name("s0");
  const SwitchId s1 = *tree_.switch_by_name("s1");
  state_.allocate(1, /*comm_intensive=*/true, std::vector<NodeId>{0, 1, 4},
                  /*io_intensive=*/false, /*comm_load=*/800);
  state_.allocate(2, /*comm_intensive=*/true, std::vector<NodeId>{2, 3},
                  /*io_intensive=*/false, /*comm_load=*/300);
  EXPECT_EQ(state_.job_load(1), 800);
  EXPECT_EQ(state_.job_load(2), 300);
  EXPECT_EQ(state_.leaf_load(s0), 2 * 800 + 2 * 300);  // nodes 0,1 + 2,3
  EXPECT_EQ(state_.leaf_load(s1), 800);                // node 4
  EXPECT_EQ(state_.load_under(s0), 2 * 800 + 2 * 300);
  EXPECT_EQ(state_.load_under(tree_.root()), 3 * 800 + 2 * 300);
  EXPECT_EQ(state_.total_load(), 3 * 800 + 2 * 300);
  state_.validate();
  state_.release(1);
  EXPECT_EQ(state_.leaf_load(s0), 2 * 300);
  EXPECT_EQ(state_.leaf_load(s1), 0);
  EXPECT_EQ(state_.total_load(), 2 * 300);
  state_.release(2);
  EXPECT_EQ(state_.total_load(), 0);
  for (const SwitchId leaf : tree_.leaves()) {
    EXPECT_EQ(state_.leaf_load(leaf), 0);
  }
  state_.validate();
}

TEST_F(ClusterStateTest, LoadViewsAreZeroCopyAndConsistent) {
  state_.allocate(9, /*comm_intensive=*/true, std::vector<NodeId>{0, 5},
                  /*io_intensive=*/false, /*comm_load=*/1024);
  const std::span<const LoadUnits> leaves = state_.leaf_loads();
  const std::span<const LoadUnits> switches = state_.switch_loads();
  LoadUnits leaf_sum = 0;
  for (const SwitchId leaf : tree_.leaves()) {
    EXPECT_EQ(leaves[static_cast<std::size_t>(leaf)], state_.leaf_load(leaf));
    leaf_sum += leaves[static_cast<std::size_t>(leaf)];
  }
  EXPECT_EQ(leaf_sum, state_.total_load());
  EXPECT_EQ(switches[static_cast<std::size_t>(tree_.root())],
            state_.total_load());
}

TEST_F(ClusterStateTest, NegativeLoadThrows) {
  EXPECT_THROW(state_.allocate(1, true, std::vector<NodeId>{0},
                               /*io_intensive=*/false, /*comm_load=*/-1),
               InvariantError);
}

TEST_F(ClusterStateTest, ComputeJobDoesNotCountAsComm) {
  state_.allocate(1, /*comm_intensive=*/false, std::vector<NodeId>{0, 1});
  const SwitchId s0 = *tree_.switch_by_name("s0");
  EXPECT_EQ(state_.leaf_busy(s0), 2);
  EXPECT_EQ(state_.leaf_comm(s0), 0);
}

TEST_F(ClusterStateTest, ReleaseRestoresEverything) {
  state_.allocate(1, true, std::vector<NodeId>{0, 1, 2});
  state_.allocate(2, false, std::vector<NodeId>{4, 5});
  state_.release(1);
  EXPECT_EQ(state_.total_free(), 6);
  EXPECT_TRUE(state_.is_free(0));
  const SwitchId s0 = *tree_.switch_by_name("s0");
  EXPECT_EQ(state_.leaf_busy(s0), 0);
  EXPECT_EQ(state_.leaf_comm(s0), 0);
  state_.release(2);
  EXPECT_EQ(state_.total_free(), 8);
  EXPECT_EQ(state_.job_count(), 0u);
  state_.validate();
}

TEST_F(ClusterStateTest, JobNodesPreservesOrder) {
  const std::vector<NodeId> nodes{5, 2, 7};
  state_.allocate(3, true, nodes);
  const auto got = state_.job_nodes(3);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), nodes.begin(), nodes.end()));
  EXPECT_TRUE(state_.job_is_comm(3));
}

TEST_F(ClusterStateTest, FreeNodesOfLeafAscending) {
  state_.allocate(1, true, std::vector<NodeId>{1, 2});
  const SwitchId s0 = *tree_.switch_by_name("s0");
  EXPECT_EQ(state_.free_nodes_of_leaf(s0), (std::vector<NodeId>{0, 3}));
}

TEST_F(ClusterStateTest, DoubleAllocationOfNodeThrows) {
  state_.allocate(1, true, std::vector<NodeId>{0});
  EXPECT_THROW(state_.allocate(2, true, std::vector<NodeId>{0}),
               InvariantError);
  // Failed allocation must not leak partial state.
  EXPECT_EQ(state_.total_free(), 7);
  state_.validate();
}

TEST_F(ClusterStateTest, DuplicateNodesInRequestThrow) {
  EXPECT_THROW(state_.allocate(1, true, std::vector<NodeId>{2, 2}),
               InvariantError);
  EXPECT_EQ(state_.total_free(), 8);
}

TEST_F(ClusterStateTest, ReusedJobIdThrows) {
  state_.allocate(1, true, std::vector<NodeId>{0});
  EXPECT_THROW(state_.allocate(1, true, std::vector<NodeId>{1}),
               InvariantError);
}

TEST_F(ClusterStateTest, ReleaseUnknownJobThrows) {
  EXPECT_THROW(state_.release(99), InvariantError);
}

TEST_F(ClusterStateTest, EmptyAllocationThrows) {
  EXPECT_THROW(state_.allocate(1, true, std::vector<NodeId>{}),
               InvariantError);
}

TEST_F(ClusterStateTest, OutOfRangeNodeThrows) {
  EXPECT_THROW(state_.allocate(1, true, std::vector<NodeId>{8}),
               InvariantError);
  EXPECT_THROW(state_.allocate(2, true, std::vector<NodeId>{-1}),
               InvariantError);
}

TEST(ClusterStateThreeLevelTest, SubtreeFreeCountsPropagate) {
  const Tree tree = make_three_level_tree(2, 2, 4);
  ClusterState state(tree);
  // Allocate 3 nodes on leaf 0 (nodes 0-3) and 1 on leaf 2 (nodes 8-11).
  state.allocate(1, true, std::vector<NodeId>{0, 1, 2});
  state.allocate(2, false, std::vector<NodeId>{8});
  const auto level2 = tree.switches_at_level(2);
  ASSERT_EQ(level2.size(), 2u);
  EXPECT_EQ(state.free_under(level2[0]), 5);  // 8 - 3
  EXPECT_EQ(state.free_under(level2[1]), 7);  // 8 - 1
  EXPECT_EQ(state.free_under(tree.root()), 12);
  state.validate();
}

TEST_F(ClusterStateTest, ReleaseReturnsExactAllocationSet) {
  const std::vector<NodeId> nodes{5, 2, 7};
  state_.allocate(1, true, nodes);
  EXPECT_EQ(state_.release(1), nodes);  // allocation order preserved
}

// Deliberate-corruption coverage: every counter validate() recomputes has a
// test that breaks it and asserts the InvariantError fires (ISSUE 2).
class ClusterStateCorruptionTest : public ClusterStateTest {
 protected:
  ClusterStateCorruptionTest() {
    state_.allocate(1, /*comm_intensive=*/true, std::vector<NodeId>{0, 1, 4},
                    /*io_intensive=*/true, /*comm_load=*/512);
    state_.validate();  // clean before each test corrupts one counter
    leaf_ = *tree_.switch_by_name("s0");
  }
  SwitchId leaf_ = kInvalidSwitch;
};

TEST_F(ClusterStateCorruptionTest, CorruptLeafBusyFires) {
  ClusterStateTestPeer::corrupt_leaf_busy(state_, leaf_, +1);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, CorruptLeafCommFires) {
  ClusterStateTestPeer::corrupt_leaf_comm(state_, leaf_, -1);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, CorruptLeafIoFires) {
  ClusterStateTestPeer::corrupt_leaf_io(state_, leaf_, +1);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, CorruptSubtreeFreeFires) {
  ClusterStateTestPeer::corrupt_switch_free(state_, tree_.root(), -1);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, CorruptFreeTotalFires) {
  ClusterStateTestPeer::corrupt_free_total(state_, +1);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, CorruptLeafLoadFires) {
  ClusterStateTestPeer::corrupt_leaf_load(state_, leaf_, +1);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, CorruptSubtreeLoadFires) {
  ClusterStateTestPeer::corrupt_switch_load(state_, tree_.root(), -512);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, CorruptLoadTotalFires) {
  ClusterStateTestPeer::corrupt_load_total(state_, +512);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, NodeOwnedByUnknownJobFires) {
  ClusterStateTestPeer::corrupt_owner(state_, 7, /*owner=*/42);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, OwnershipTableDisagreementFires) {
  // node_owner_ says node 4 belongs to job 1 but the job record no longer
  // lists it.
  ClusterStateTestPeer::drop_job_node(state_, 1);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, FreeIndexOutOfOrderFires) {
  // s1 has nodes {4..7}, node 4 busy -> free prefix {5, 6, 7}.
  ClusterStateTestPeer::corrupt_free_index_order(
      state_, *tree_.switch_by_name("s1"));
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, FreeIndexForeignNodeFires) {
  // Put one of s0's nodes into s1's free index.
  ClusterStateTestPeer::corrupt_free_index_entry(
      state_, *tree_.switch_by_name("s1"), /*n=*/3);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, FreeIndexAllocatedNodeFires) {
  // Node 4 belongs to job 1; listing it as free must fire. 4 is below every
  // genuinely free node of s1, so the ascending-order check stays quiet and
  // the is-free check is what trips.
  ClusterStateTestPeer::corrupt_free_index_entry(
      state_, *tree_.switch_by_name("s1"), /*n=*/4);
  EXPECT_THROW(state_.validate(), InvariantError);
}

TEST_F(ClusterStateCorruptionTest, FreeIndexDesyncTripsTransition) {
  // An allocation over a node the free index no longer lists must fire the
  // transition-time cross-check, not corrupt the index silently. Overwriting
  // the first entry (node 5) evicts it from the index while node_owner_
  // still says free, so allocating node 5 passes the is_free precondition
  // and trips inside transition().
  ClusterStateTestPeer::corrupt_free_index_entry(
      state_, *tree_.switch_by_name("s1"), /*n=*/4);
  EXPECT_THROW(state_.allocate(2, false, std::vector<NodeId>{5}),
               InvariantError);
}

TEST_F(ClusterStateCorruptionTest, ViolationMessageCarriesValues) {
  ClusterStateTestPeer::corrupt_free_total(state_, +3);
  try {
    state_.validate();
    FAIL() << "expected InvariantError";
  } catch (const InvariantError& e) {
    // The comparison macros report both operand values.
    EXPECT_NE(std::string(e.what()).find("free_total_ = 8"),
              std::string::npos)
        << e.what();
  }
}

// Each leaf's free index must list exactly the leaf's free nodes, ascending.
void expect_free_index_matches_scan(const Tree& tree,
                                    const ClusterState& state) {
  for (const SwitchId leaf : tree.leaves()) {
    std::vector<NodeId> scan;
    for (const NodeId n : tree.nodes_of_leaf(leaf))
      if (state.is_free(n)) scan.push_back(n);
    std::sort(scan.begin(), scan.end());
    const std::span<const NodeId> index = state.free_leaf_span(leaf);
    ASSERT_EQ(std::vector<NodeId>(index.begin(), index.end()), scan)
        << "leaf " << leaf;
  }
}

// Lists `nodes` round-robin over their leaves: each leaf's nodes stay
// ascending, but a job on several leaves lists no leaf as one run.
void interleave_by_leaf(const Tree& tree, std::vector<NodeId>& nodes) {
  std::sort(nodes.begin(), nodes.end());
  std::vector<int> seen(static_cast<std::size_t>(tree.switch_count()), 0);
  std::vector<std::pair<int, NodeId>> ranked;
  for (const NodeId n : nodes)
    ranked.emplace_back(seen[static_cast<std::size_t>(tree.leaf_of(n))]++, n);
  std::stable_sort(
      ranked.begin(), ranked.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i] = ranked[i].second;
}

void run_random_ops(const Tree& tree, std::uint64_t seed, int max_job) {
  ClusterState state(tree);
  Rng rng(seed);
  std::vector<JobId> live;
  std::vector<NodeId> free_nodes;
  JobId next = 1;
  for (int step = 0; step < 300; ++step) {
    const bool do_alloc = live.empty() || (state.total_free() > 0 &&
                                           rng.bernoulli(0.6));
    if (do_alloc) {
      free_nodes.clear();
      for (NodeId n = 0; n < tree.node_count(); ++n)
        if (state.is_free(n)) free_nodes.push_back(n);
      rng.shuffle(free_nodes);
      const auto want = static_cast<std::ptrdiff_t>(rng.uniform_int(
          1, std::min(static_cast<std::int64_t>(free_nodes.size()),
                      std::int64_t{max_job})));
      std::vector<NodeId> nodes(free_nodes.begin(), free_nodes.begin() + want);
      // Ascending (one run per leaf, as allocators emit), shuffled, or
      // round-robin over leaves.
      const std::int64_t order = rng.uniform_int(0, 2);
      if (order == 0) std::sort(nodes.begin(), nodes.end());
      if (order == 2) interleave_by_leaf(tree, nodes);
      const LoadUnits load = rng.uniform_int(1, 2 * kLoadUnitScale);
      state.allocate(next, rng.bernoulli(0.5), nodes, rng.bernoulli(0.3),
                     load);
      live.push_back(next++);
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const std::vector<NodeId> held(state.job_nodes(live[pick]).begin(),
                                     state.job_nodes(live[pick]).end());
      EXPECT_EQ(state.release(live[pick]), held);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    state.validate();
    expect_free_index_matches_scan(tree, state);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Property sweep: random allocate/release sequences keep every incremental
// counter and each leaf's free index consistent with a from-scratch
// recomputation, on narrow 8-node leaves and on wide 366-node leaves (as on
// Theta). Jobs span several leaves, carry comm/io flags and a nonzero load,
// and list their nodes ascending, shuffled or interleaved by leaf, so the
// batched transition's run, scatter and sort paths all run.
class ClusterStateRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterStateRandomOps, ValidateAfterEveryStep) {
  run_random_ops(make_three_level_tree(2, 4, 8), GetParam(), /*max_job=*/12);
  run_random_ops(make_two_level_tree(3, 366), GetParam(), /*max_job=*/400);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterStateRandomOps,
                         ::testing::Values(1, 7, 42, 1234, 987654));

}  // namespace
}  // namespace commsched
