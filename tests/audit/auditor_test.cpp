#include "audit/auditor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "audit/level.hpp"
#include "cluster/state.hpp"
#include "collectives/comm_cache.hpp"
#include "collectives/schedule.hpp"
#include "core/cost_model.hpp"
#include "core/sa_allocator.hpp"
#include "topology/builders.hpp"
#include "util/assert.hpp"

namespace commsched {
namespace {

// Each invariant class gets a deliberate-corruption test proving the exact
// auditor check can fire, plus a matching happy-path check — the ISSUE's
// guarantee that a passing COMMSCHED_AUDIT=full run means something.

std::string violation_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const InvariantError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected an InvariantError";
  return {};
}

class AuditorTest : public ::testing::Test {
 protected:
  AuditorTest()
      : tree_(make_figure2_tree()),
        state_(tree_),
        auditor_(tree_, AuditLevel::kFull) {}

  Tree tree_;           // 8 nodes, 2 leaves
  ClusterState state_;
  StateAuditor auditor_;
};

TEST_F(AuditorTest, OffLevelChecksNothing) {
  StateAuditor off(tree_, AuditLevel::kOff);
  EXPECT_FALSE(off.enabled());
  off.on_event(5.0, "e1");
  off.on_event(1.0, "e2");  // would violate monotonicity when enabled
  off.check_cost(-1.0, 1, "cost");
  EXPECT_EQ(off.events_seen(), 0u);
  EXPECT_EQ(off.checks_run(), 0u);
}

TEST_F(AuditorTest, EventMonotonicityFires) {
  auditor_.on_event(5.0, "end job", 1);
  EXPECT_NO_THROW(auditor_.on_event(5.0, "submit job", 2));  // ties are fine
  const std::string msg = violation_message(
      [&] { auditor_.on_event(4.0, "submit job", 3); });
  EXPECT_NE(msg.find("event clock ran backwards"), std::string::npos);
  EXPECT_NE(msg.find("submit job 3"), std::string::npos);  // offending event
  EXPECT_NE(msg.find("submit job 2"), std::string::npos);  // prior context
}

TEST_F(AuditorTest, NonFiniteEventTimeFires) {
  const std::string msg = violation_message(
      [&] { auditor_.on_event(std::nan(""), "end job 1"); });
  EXPECT_NE(msg.find("non-finite time"), std::string::npos);
}

TEST_F(AuditorTest, AllocationDisjointnessFires) {
  state_.allocate(1, true, std::vector<NodeId>{0, 1});
  auditor_.on_allocate(state_, 1, state_.job_nodes(1));
  // Bypass the auditor: release in the cluster only, then hand the reused
  // node to another job. The shadow table still holds it for job 1.
  state_.release(1);
  state_.allocate(2, true, std::vector<NodeId>{1, 2});
  const std::string msg = violation_message(
      [&] { auditor_.on_allocate(state_, 2, state_.job_nodes(2)); });
  EXPECT_NE(msg.find("allocation disjointness broken"), std::string::npos);
  EXPECT_NE(msg.find("node 1"), std::string::npos);
  EXPECT_NE(msg.find("held by job 1"), std::string::npos);
}

TEST_F(AuditorTest, DoubleAllocationOfJobFires) {
  state_.allocate(1, true, std::vector<NodeId>{0});
  auditor_.on_allocate(state_, 1, state_.job_nodes(1));
  const std::string msg = violation_message(
      [&] { auditor_.on_allocate(state_, 1, state_.job_nodes(1)); });
  EXPECT_NE(msg.find("allocated twice"), std::string::npos);
}

TEST_F(AuditorTest, ClusterOwnerDisagreementFires) {
  // The auditor is told job 3 got node 5, but the cluster never did it.
  const std::vector<NodeId> claimed{5};
  const std::string msg = violation_message(
      [&] { auditor_.on_allocate(state_, 3, claimed); });
  EXPECT_NE(msg.find("cluster state disagrees"), std::string::npos);
}

TEST_F(AuditorTest, FreeCountDivergenceOnAllocateFires) {
  // Allocate two jobs in the cluster but report only one to the auditor:
  // total_free() then disagrees with the shadow count.
  state_.allocate(1, true, std::vector<NodeId>{0});
  state_.allocate(2, true, std::vector<NodeId>{1});
  const std::string msg = violation_message(
      [&] { auditor_.on_allocate(state_, 2, state_.job_nodes(2)); });
  EXPECT_NE(msg.find("free-node count diverged"), std::string::npos);
}

TEST_F(AuditorTest, ReleaseOfUnknownJobFires) {
  const std::vector<NodeId> freed{0};
  const std::string msg = violation_message(
      [&] { auditor_.on_release(state_, 9, freed); });
  EXPECT_NE(msg.find("never saw allocated"), std::string::npos);
}

TEST_F(AuditorTest, ReleaseSetMismatchFires) {
  state_.allocate(1, true, std::vector<NodeId>{0, 1, 2});
  auditor_.on_allocate(state_, 1, state_.job_nodes(1));
  const std::vector<NodeId> freed = state_.release(1);
  ASSERT_EQ(freed, (std::vector<NodeId>{0, 1, 2}));
  const std::vector<NodeId> partial{0, 1};  // claim fewer nodes came back
  const std::string msg = violation_message(
      [&] { auditor_.on_release(state_, 1, partial); });
  EXPECT_NE(msg.find("but the job allocated"), std::string::npos);
}

TEST_F(AuditorTest, ReleaseLeavingNodeBusyFires) {
  state_.allocate(1, true, std::vector<NodeId>{0, 1});
  auditor_.on_allocate(state_, 1, state_.job_nodes(1));
  // Release in the cluster, reallocate node 1 to someone else, then report
  // the original release: node 1 must be flagged as still busy.
  state_.release(1);
  state_.allocate(2, true, std::vector<NodeId>{1});
  const std::vector<NodeId> freed{0, 1};
  const std::string msg = violation_message(
      [&] { auditor_.on_release(state_, 1, freed); });
  EXPECT_NE(msg.find("still busy"), std::string::npos);
}

TEST_F(AuditorTest, BackfillGuardFires) {
  // Harmless cases: ends before the shadow time, or fits the spare nodes.
  EXPECT_NO_THROW(auditor_.check_backfill(10.0, 7, 5.0, 4, 15.0, 0));
  EXPECT_NO_THROW(auditor_.check_backfill(10.0, 7, 50.0, 4, 15.0, 4));
  const std::string msg = violation_message(
      [&] { auditor_.check_backfill(10.0, 7, 50.0, 4, 15.0, 2); });
  EXPECT_NE(msg.find("EASY backfill violated the head reservation"),
            std::string::npos);
  EXPECT_NE(msg.find("job 7"), std::string::npos);
}

TEST_F(AuditorTest, NegativeCostFires) {
  EXPECT_NO_THROW(auditor_.check_cost(0.0, 1, "Eq. 6 cost"));
  EXPECT_NO_THROW(auditor_.check_cost(12.5, 1, "Eq. 6 cost"));
  const std::string neg = violation_message(
      [&] { auditor_.check_cost(-0.25, 1, "Eq. 6 cost"); });
  EXPECT_NE(neg.find("finite and non-negative"), std::string::npos);
  const std::string nan = violation_message(
      [&] { auditor_.check_cost(std::nan(""), 1, "Eq. 6 cost"); });
  EXPECT_NE(nan.find("finite and non-negative"), std::string::npos);
}

TEST_F(AuditorTest, CostSymmetryHoldsOnRealModel) {
  state_.allocate(1, true, std::vector<NodeId>{0, 1, 4, 5});
  auditor_.on_allocate(state_, 1, state_.job_nodes(1));
  const CostModel model(tree_);
  EXPECT_NO_THROW(
      auditor_.check_cost_symmetry(model, state_, state_.job_nodes(1), 1));
}

TEST_F(AuditorTest, FlowCorruptionFires) {
  EXPECT_NO_THROW(auditor_.check_flow(1024.0, 1e9, 0.0, 0));
  EXPECT_NO_THROW(auditor_.check_flow(-1e-6, 0.0, 0.0, 0));  // byte epsilon
  const std::string msg = violation_message(
      [&] { auditor_.check_flow(-1.0, 1e9, 0.0, 3); });
  EXPECT_NE(msg.find("netsim flow of job 3 corrupted"), std::string::npos);
  EXPECT_THROW(auditor_.check_flow(10.0, -1.0, 0.0, 3), InvariantError);
  EXPECT_THROW(auditor_.check_flow(10.0, std::nan(""), 0.0, 3),
               InvariantError);
}

TEST_F(AuditorTest, CheckStateCrossValidationFires) {
  state_.allocate(1, true, std::vector<NodeId>{0, 1});
  auditor_.on_allocate(state_, 1, state_.job_nodes(1));
  EXPECT_NO_THROW(auditor_.check_state(state_));
  // Allocate behind the auditor's back: the job count diverges.
  state_.allocate(2, false, std::vector<NodeId>{4});
  const std::string msg =
      violation_message([&] { auditor_.check_state(state_); });
  EXPECT_NE(msg.find("live-job count diverged"), std::string::npos);
}

TEST_F(AuditorTest, CheckStateNodeSetDivergenceFires) {
  state_.allocate(1, true, std::vector<NodeId>{0, 1});
  auditor_.on_allocate(state_, 1, state_.job_nodes(1));
  // Swap the allocation for a different node set without telling the
  // auditor: same job count, different nodes.
  state_.release(1);
  state_.allocate(1, true, std::vector<NodeId>{2, 3});
  const std::string msg =
      violation_message([&] { auditor_.check_state(state_); });
  EXPECT_NE(msg.find("node sets diverged"), std::string::npos);
}

TEST_F(AuditorTest, CheckStateReportsLowestDivergedJobFirst) {
  // Three jobs diverge at once; the report must name the smallest id, not
  // whichever the shadow table's hash order visits first — audit failures
  // have to reproduce identically across libstdc++ versions.
  for (const JobId job : {7, 3, 5}) {
    state_.allocate(job, true, std::vector<NodeId>{NodeId(job % 3)});
    auditor_.on_allocate(state_, job, state_.job_nodes(job));
  }
  for (const JobId job : {7, 3, 5}) state_.release(job);
  for (const JobId job : {7, 3, 5})
    state_.allocate(job, true, std::vector<NodeId>{NodeId(job % 3 + 4)});
  const std::string msg =
      violation_message([&] { auditor_.check_state(state_); });
  EXPECT_NE(msg.find("job 3 node sets diverged"), std::string::npos);
}

TEST_F(AuditorTest, ProfileConsistencyPassesOnHonestProfile) {
  const std::vector<NodeId> nodes{0, 1, 4, 5};
  for (const Pattern pattern :
       {Pattern::kRecursiveDoubling, Pattern::kPairwiseAlltoall,
        Pattern::kRing}) {
    const LeafCommProfile profile = make_leaf_comm_profile(
        pattern, 1024.0, make_shape_key(tree_, nodes), /*ranks_per_node=*/2);
    EXPECT_NO_THROW(auditor_.check_profile(pattern, profile, nodes, 1));
  }
  EXPECT_GT(auditor_.checks_run(), 0u);
}

TEST_F(AuditorTest, ProfileRankCountMismatchFires) {
  const std::vector<NodeId> nodes{0, 1, 4, 5};
  const LeafCommProfile profile = make_leaf_comm_profile(
      Pattern::kRecursiveDoubling, 1.0, make_shape_key(tree_, nodes), 1);
  const std::vector<NodeId> fewer{0, 1, 4};
  const std::string msg = violation_message([&] {
    auditor_.check_profile(Pattern::kRecursiveDoubling, profile, fewer, 9);
  });
  EXPECT_NE(msg.find("covers 4 ranks"), std::string::npos);
  EXPECT_NE(msg.find("3 nodes"), std::string::npos);
}

TEST_F(AuditorTest, ProfileShapeMismatchFires) {
  // Profile built for a two-leaf shape, priced allocation sits on one leaf:
  // same node count, wrong canonical shape (the "stale ShapeKey" bug class).
  const LeafCommProfile profile = make_leaf_comm_profile(
      Pattern::kRecursiveDoubling, 1.0,
      make_shape_key(tree_, std::vector<NodeId>{0, 4}), 1);
  const std::vector<NodeId> one_leaf{0, 1};
  const std::string msg = violation_message([&] {
    auditor_.check_profile(Pattern::kRecursiveDoubling, profile, one_leaf, 9);
  });
  EXPECT_NE(msg.find("2 leaf slots"), std::string::npos);
  EXPECT_NE(msg.find("touches 1 leaves"), std::string::npos);
}

TEST_F(AuditorTest, ProfileCorruptionFires) {
  // Deliberately corrupt each audited field of the sampled step (a fresh
  // auditor has seen no events, so step 0 is sampled) and check the
  // re-derivation catches every one.
  const std::vector<NodeId> nodes{0, 1, 4, 5};
  const LeafCommProfile honest = make_leaf_comm_profile(
      Pattern::kPairwiseAlltoall, 1024.0, make_shape_key(tree_, nodes), 1);
  EXPECT_NO_THROW(auditor_.check_profile(Pattern::kPairwiseAlltoall, honest,
                                         nodes, 9));

  LeafCommProfile bad_pairs = honest;
  bad_pairs.classes[static_cast<std::size_t>(bad_pairs.steps[0].cls)]
      .leaf_pairs.emplace_back(0, 1);
  const std::string pairs_msg = violation_message([&] {
    auditor_.check_profile(Pattern::kPairwiseAlltoall, bad_pairs, nodes, 9);
  });
  EXPECT_NE(pairs_msg.find("diverges from the schedule"), std::string::npos);

  LeafCommProfile bad_counts = honest;
  bad_counts.steps[0].same_node_pairs += 1;
  EXPECT_THROW(auditor_.check_profile(Pattern::kPairwiseAlltoall, bad_counts,
                                      nodes, 9),
               InvariantError);

  LeafCommProfile bad_msize = honest;
  bad_msize.steps[0].msize *= 2.0;
  EXPECT_THROW(auditor_.check_profile(Pattern::kPairwiseAlltoall, bad_msize,
                                      nodes, 9),
               InvariantError);

  LeafCommProfile bad_class = honest;
  bad_class.steps[0].cls = 1'000'000;
  EXPECT_THROW(auditor_.check_profile(Pattern::kPairwiseAlltoall, bad_class,
                                      nodes, 9),
               InvariantError);
}

TEST_F(AuditorTest, ProfileWithPhantomStepsFires) {
  // Pad the profile with steps the schedule never produces; advance the
  // event counter so the rotating sample lands on a phantom step.
  const std::vector<NodeId> nodes{0, 4};
  LeafCommProfile padded = make_leaf_comm_profile(
      Pattern::kRecursiveDoubling, 1.0, make_shape_key(tree_, nodes), 1);
  ASSERT_EQ(padded.steps.size(), 1u);  // RD at p=2: a single step
  padded.steps.push_back(padded.steps[0]);
  auditor_.on_event(1.0, "tick");  // events_seen()=1 -> samples step 1
  const std::string msg = violation_message([&] {
    auditor_.check_profile(Pattern::kRecursiveDoubling, padded, nodes, 9);
  });
  EXPECT_NE(msg.find("records 2 steps"), std::string::npos);
  EXPECT_NE(msg.find("ended before step 1"), std::string::npos);
}

TEST_F(AuditorTest, ProfileCheckRunsAtCheapLevel) {
  StateAuditor cheap(tree_, AuditLevel::kCheap);
  const std::vector<NodeId> nodes{0, 1};
  LeafCommProfile profile = make_leaf_comm_profile(
      Pattern::kRecursiveDoubling, 1.0, make_shape_key(tree_, nodes), 1);
  EXPECT_NO_THROW(
      cheap.check_profile(Pattern::kRecursiveDoubling, profile, nodes, 1));
  const std::uint64_t before = cheap.checks_run();
  EXPECT_GT(before, 0u);
  profile.steps[0].same_leaf_pairs += 3;
  EXPECT_THROW(
      cheap.check_profile(Pattern::kRecursiveDoubling, profile, nodes, 1),
      InvariantError);
}

TEST_F(AuditorTest, CheapLevelSkipsFullChecks) {
  StateAuditor cheap(tree_, AuditLevel::kCheap);
  state_.allocate(1, true, std::vector<NodeId>{0, 1});
  cheap.on_allocate(state_, 1, state_.job_nodes(1));
  // Diverge the state behind the auditor's back: full would fire,
  // cheap's check_state is a documented no-op.
  state_.allocate(2, false, std::vector<NodeId>{4});
  EXPECT_NO_THROW(cheap.check_state(state_));
  EXPECT_NO_THROW(cheap.check_flow(-5.0, 0.0, 0.0, 0));
  // ... but the cheap event/ownership checks still run.
  cheap.on_event(3.0, "e1");
  EXPECT_THROW(cheap.on_event(2.0, "e2"), InvariantError);
  EXPECT_GT(cheap.checks_run(), 0u);
}

TEST_F(AuditorTest, LoadLedgerDivergenceOnAllocateFires) {
  // The cluster books 512 load units per node but the auditor is told 256:
  // the O(1) machine-total cross-check fires at allocation time.
  state_.allocate(1, true, std::vector<NodeId>{0, 1}, false,
                  /*comm_load=*/512);
  const std::string msg = violation_message([&] {
    auditor_.on_allocate(state_, 1, state_.job_nodes(1), /*load=*/256);
  });
  EXPECT_NE(msg.find("communication-load total diverged"), std::string::npos);
}

TEST_F(AuditorTest, LoadLedgerHappyPathAndReleaseRoundTrip) {
  state_.allocate(1, true, std::vector<NodeId>{0, 1}, false, 512);
  EXPECT_NO_THROW(auditor_.on_allocate(state_, 1, state_.job_nodes(1), 512));
  state_.allocate(2, true, std::vector<NodeId>{4}, false, 1024);
  EXPECT_NO_THROW(auditor_.on_allocate(state_, 2, state_.job_nodes(2), 1024));
  EXPECT_NO_THROW(auditor_.check_state(state_));
  const std::vector<NodeId> freed = state_.release(1);
  EXPECT_NO_THROW(auditor_.on_release(state_, 1, freed));
  EXPECT_NO_THROW(auditor_.check_state(state_));
}

TEST_F(AuditorTest, NegativeLoadReportFires) {
  state_.allocate(1, true, std::vector<NodeId>{0});
  const std::string msg = violation_message(
      [&] { auditor_.on_allocate(state_, 1, state_.job_nodes(1), -5); });
  EXPECT_NE(msg.find("negative load"), std::string::npos);
}

TEST_F(AuditorTest, LoadLedgerDivergenceOnReleaseFires) {
  // The auditor recorded the allocation-time load, so a release only fires
  // if the cluster's accumulators drifted in between — simulate the drift
  // by releasing a cluster-side job the auditor never saw carry load.
  state_.allocate(1, true, std::vector<NodeId>{0, 1}, false, 512);
  auditor_.on_allocate(state_, 1, state_.job_nodes(1), 512);
  state_.allocate(2, true, std::vector<NodeId>{4}, false, 256);
  auditor_.on_allocate(state_, 2, state_.job_nodes(2), 256);
  // Cluster releases job 2 (load 256 leaves the accumulators); the auditor
  // is told job 1 came back instead: totals disagree by 2*512 - 256.
  state_.release(2);
  state_.release(1);
  const std::vector<NodeId> freed{0, 1};
  const std::string msg = violation_message(
      [&] { auditor_.on_release(state_, 1, freed); });
  EXPECT_NE(msg.find("diverged"), std::string::npos);
}

TEST_F(AuditorTest, StaleEndEventFires) {
  state_.allocate(1, true, std::vector<NodeId>{0, 1});
  auditor_.on_allocate(state_, 1, state_.job_nodes(1));
  auditor_.on_end_scheduled(1, 50.0);
  // A re-evaluation moved the end to 60 but a stale heap entry pops at 50.
  auditor_.on_end_scheduled(1, 60.0);
  const std::string msg = violation_message(
      [&] { auditor_.check_end_event(state_, 1, 50.0); });
  EXPECT_NE(msg.find("stale completion event"), std::string::npos);
  // The rescheduled time itself passes.
  EXPECT_NO_THROW(auditor_.check_end_event(state_, 1, 60.0));
}

TEST_F(AuditorTest, EndEventForUnknownOrReleasedJobFires) {
  state_.allocate(1, true, std::vector<NodeId>{0});
  auditor_.on_allocate(state_, 1, state_.job_nodes(1));
  auditor_.on_end_scheduled(1, 50.0);
  // A completion for a job the shadow table never saw running.
  const std::string unknown = violation_message(
      [&] { auditor_.check_end_event(state_, 9, 50.0); });
  EXPECT_NE(unknown.find("does not hold as running"), std::string::npos);
  // After release the scheduled end is cleaned up too: a late completion
  // event for the released job fires.
  const std::vector<NodeId> freed = state_.release(1);
  auditor_.on_release(state_, 1, freed);
  EXPECT_THROW(auditor_.check_end_event(state_, 1, 50.0), InvariantError);
}

TEST_F(AuditorTest, EndEventWithoutScheduleFires) {
  state_.allocate(1, true, std::vector<NodeId>{0});
  auditor_.on_allocate(state_, 1, state_.job_nodes(1));
  state_.allocate(2, true, std::vector<NodeId>{1});
  auditor_.on_allocate(state_, 2, state_.job_nodes(2));
  auditor_.on_end_scheduled(1, 50.0);  // job 2 never announced an end
  const std::string msg = violation_message(
      [&] { auditor_.check_end_event(state_, 2, 50.0); });
  EXPECT_NE(msg.find("no end on record"), std::string::npos);
  // check_state also flags the count mismatch between running jobs and
  // scheduled ends.
  const std::string state_msg =
      violation_message([&] { auditor_.check_state(state_); });
  EXPECT_NE(state_msg.find("scheduled-end table"), std::string::npos);
}

TEST_F(AuditorTest, EndEventCheckSkippedWhenNeverScheduled) {
  // An engine that never calls on_end_scheduled opts out of the end-event
  // invariant instead of tripping on an empty table.
  state_.allocate(1, true, std::vector<NodeId>{0});
  auditor_.on_allocate(state_, 1, state_.job_nodes(1));
  EXPECT_NO_THROW(auditor_.check_end_event(state_, 1, 123.0));
  EXPECT_NO_THROW(auditor_.check_state(state_));
}

TEST(AuditLevelTest, NamesRoundTrip) {
  for (const AuditLevel level :
       {AuditLevel::kOff, AuditLevel::kCheap, AuditLevel::kFull})
    EXPECT_EQ(audit_level_from_string(audit_level_name(level)), level);
  EXPECT_EQ(audit_level_from_string("verbose"), std::nullopt);
  EXPECT_EQ(audit_level_from_string(""), std::nullopt);
}

// Both Eq. 6 sums of `nodes` on `state` under `model`'s include_candidate.
CandidateCosts fresh_costs(const CostModel& model, const ClusterState& state,
                           const std::vector<NodeId>& nodes,
                           const LeafCommProfile& profile) {
  CostWorkspace ws;
  return model.candidate_costs(state, nodes, true, profile, ws);
}

LeafCommProfile alltoall_profile(const Tree& tree,
                                 const std::vector<NodeId>& nodes) {
  return make_leaf_comm_profile(Pattern::kPairwiseAlltoall, double{1 << 20},
                                make_shape_key(tree, nodes), 1);
}

TEST_F(AuditorTest, SaCostCrossCheckPassesOnHonestClaim) {
  // The price the search allocator hands on is both Eq. 6 sums of the
  // placement on the pre-allocation state; re-deriving them through an
  // independent workspace must agree bit for bit.
  state_.allocate(1, true, std::vector<NodeId>{0, 1});
  const CostModel model(tree_, CostOptions{.hop_bytes = true});
  const std::vector<NodeId> nodes{2, 4, 5};
  const LeafCommProfile profile = alltoall_profile(tree_, nodes);
  const CandidateCosts honest = fresh_costs(model, state_, nodes, profile);
  const std::uint64_t before = auditor_.checks_run();
  EXPECT_NO_THROW(auditor_.check_reused_cost(model, state_, nodes, true,
                                             profile, honest, 7));
  EXPECT_GT(auditor_.checks_run(), before);
}

TEST_F(AuditorTest, SaCostDivergenceFires) {
  const CostModel model(tree_, CostOptions{.hop_bytes = true});
  const std::vector<NodeId> nodes{0, 1, 4};
  const LeafCommProfile profile = alltoall_profile(tree_, nodes);
  CandidateCosts drifted = fresh_costs(model, state_, nodes, profile);
  // Even a one-ulp drift is a violation: the delta kernel's contract is
  // bit-for-bit agreement, not approximate agreement.
  drifted.hop_bytes = std::nextafter(drifted.hop_bytes,
                                     std::numeric_limits<double>::infinity());
  const std::string msg = violation_message([&] {
    auditor_.check_reused_cost(model, state_, nodes, true, profile, drifted,
                               7);
  });
  EXPECT_NE(msg.find("reused Eq. 6 price diverges"), std::string::npos);
  EXPECT_NE(msg.find("job 7"), std::string::npos);
  EXPECT_NE(msg.find(" hop_bytes: claimed"), std::string::npos);
  EXPECT_EQ(msg.find(" hops: claimed"), std::string::npos);  // honest sum
}

TEST_F(AuditorTest, SaCostCheckSkippedWhenOff) {
  StateAuditor off(tree_, AuditLevel::kOff);
  const CostModel model(tree_, CostOptions{.hop_bytes = true});
  const std::vector<NodeId> nodes{0, 1};
  const LeafCommProfile profile = alltoall_profile(tree_, nodes);
  EXPECT_NO_THROW(off.check_reused_cost(model, state_, nodes, true, profile,
                                        {-123.0, -123.0}, 7));
  EXPECT_EQ(off.checks_run(), 0u);
}

TEST_F(AuditorTest, ReusedCostCheckRunsAtCheapLevel) {
  // Adaptive hands both sums of its winner to the start path; the check
  // that re-prices them is a cheap-level one, like the sa cross-check.
  StateAuditor cheap(tree_, AuditLevel::kCheap);
  state_.allocate(1, true, std::vector<NodeId>{0, 1});
  const CostModel model(tree_);
  const std::vector<NodeId> nodes{2, 3, 4, 5};
  const LeafCommProfile profile = alltoall_profile(tree_, nodes);
  const CandidateCosts honest = fresh_costs(model, state_, nodes, profile);
  ASSERT_NE(honest.hops, honest.hop_bytes);
  EXPECT_NO_THROW(
      cheap.check_reused_cost(model, state_, nodes, true, profile, honest, 7));
  EXPECT_EQ(cheap.checks_run(), 1u);
}

TEST_F(AuditorTest, PerturbedReusedSumFires) {
  // Deliberate corruption: one passed-on sum off by one ulp, the other
  // honest. The report names the diverging sum with both hexfloats.
  const CostModel model(tree_);
  const std::vector<NodeId> nodes{2, 3, 4, 5};
  const LeafCommProfile profile = alltoall_profile(tree_, nodes);
  const CandidateCosts honest = fresh_costs(model, state_, nodes, profile);
  for (const bool perturb_hops : {true, false}) {
    CandidateCosts claim = honest;
    double& bad = perturb_hops ? claim.hops : claim.hop_bytes;
    bad = std::nextafter(bad, 0.0);
    const std::string msg = violation_message([&] {
      auditor_.check_reused_cost(model, state_, nodes, true, profile, claim,
                                 9);
    });
    EXPECT_NE(msg.find("reused Eq. 6 price diverges"), std::string::npos);
    EXPECT_NE(msg.find("job 9"), std::string::npos);
    std::ostringstream hex;
    hex << std::hexfloat << bad;
    EXPECT_NE(msg.find(hex.str()), std::string::npos) << msg;
  }
}

TEST_F(AuditorTest, PriceFromAnotherStateFires) {
  // A select on one state followed by a start on another: the sums were
  // honest for the state they were priced on, and no longer fit.
  const CostModel model(tree_);
  const std::vector<NodeId> nodes{2, 3, 4, 5};
  const LeafCommProfile profile = alltoall_profile(tree_, nodes);
  const CandidateCosts stale = fresh_costs(model, state_, nodes, profile);
  state_.allocate(1, true, std::vector<NodeId>{0, 1, 6});
  const std::string msg = violation_message([&] {
    auditor_.check_reused_cost(model, state_, nodes, true, profile, stale,
                               3);
  });
  EXPECT_NE(msg.find("reused Eq. 6 price diverges"), std::string::npos);
}

TEST(AuditLevelTest, SaVerifyStrideRisesWithTheLevel) {
  // Unset, the stride follows the level: none at off, every 64th accepted
  // move at cheap, every one at full.
  const SaOptions unset;
  ASSERT_EQ(unset.verify_stride, 0);
  EXPECT_EQ(sa_options_for(unset, AuditLevel::kOff).verify_stride, 0);
  EXPECT_EQ(sa_options_for(unset, AuditLevel::kCheap).verify_stride, 64);
  EXPECT_EQ(sa_options_for(unset, AuditLevel::kFull).verify_stride, 1);
  // Set, it wins at every level; the other knobs pass through untouched.
  SaOptions set;
  set.verify_stride = 8;
  set.budget = 17;
  for (const AuditLevel level :
       {AuditLevel::kOff, AuditLevel::kCheap, AuditLevel::kFull}) {
    const SaOptions got = sa_options_for(set, level);
    EXPECT_EQ(got.verify_stride, 8) << audit_level_name(level);
    EXPECT_EQ(got.budget, 17) << audit_level_name(level);
  }
}

TEST(AuditLevelTest, EnvSelectsLevel) {
  ASSERT_EQ(setenv("COMMSCHED_AUDIT", "cheap", 1), 0);
  EXPECT_EQ(audit_level_from_env(), AuditLevel::kCheap);
  ASSERT_EQ(setenv("COMMSCHED_AUDIT", "full", 1), 0);
  EXPECT_EQ(audit_level_from_env(), AuditLevel::kFull);
  ASSERT_EQ(setenv("COMMSCHED_AUDIT", "", 1), 0);
  EXPECT_EQ(audit_level_from_env(), AuditLevel::kOff);
  ASSERT_EQ(setenv("COMMSCHED_AUDIT", "FULL", 1), 0);  // case-sensitive
  EXPECT_THROW(audit_level_from_env(), InvariantError);
  ASSERT_EQ(unsetenv("COMMSCHED_AUDIT"), 0);
  EXPECT_EQ(audit_level_from_env(), AuditLevel::kOff);
}

}  // namespace
}  // namespace commsched
