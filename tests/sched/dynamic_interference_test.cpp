// Behavioural lockdown of dynamic interference (DESIGN.md "Dynamic
// interference"): co-located communication load inflates running jobs'
// remaining time, releases deflate it, the walltime cap still kills
// overruns, the static Eq. 7 results are recovered bit for bit when the
// dynamics are inert, and QueuePolicy::kColocation defers antagonists while
// letting compatible jobs pack. Hand-sized logs keep every expected number
// computable by hand (kLoadUnitScale arithmetic is exact in doubles).
#include <gtest/gtest.h>

#include <vector>

#include "sched/simulator.hpp"
#include "topology/builders.hpp"
#include "workload/job.hpp"

namespace commsched {
namespace {

JobRecord comm_job(int id, double submit, int nodes, double runtime,
                   double comm_fraction, double walltime = 0.0) {
  JobRecord j;
  j.id = id;
  j.submit_time = submit;
  j.num_nodes = nodes;
  j.runtime = runtime;
  j.walltime = walltime > 0.0 ? walltime : runtime * 10.0;
  j.comm_intensive = true;
  j.comm_fraction = comm_fraction;
  j.pattern = Pattern::kRecursiveDoubling;
  return j;
}

JobRecord compute_job(int id, double submit, int nodes, double runtime) {
  JobRecord j;
  j.id = id;
  j.submit_time = submit;
  j.num_nodes = nodes;
  j.runtime = runtime;
  j.walltime = runtime * 10.0;
  j.comm_intensive = false;
  return j;
}

SchedOptions dynamic_options(double alpha = 1.0) {
  SchedOptions options;
  options.degradation.enabled = true;
  options.degradation.alpha = alpha;
  options.audit = AuditLevel::kFull;  // every event cross-checked
  return options;
}

// Two half-communication jobs sharing a leaf degrade each other by exactly
// factor 1 + alpha * 0.5 * (2 * 512 / (1024 * 4)) = 1.125: both run
// 100 * 1.125 = 112.5 (all values exact in binary floating point).
TEST(DynamicInterferenceTest, CoLocatedJobsInflateEachOther) {
  const Tree tree = make_two_level_tree(2, 4);
  const JobLog log{comm_job(1, 0.0, 2, 100.0, 0.5),
                   comm_job(2, 0.0, 2, 100.0, 0.5)};
  const SimResult res = run_continuous(tree, log, dynamic_options());
  // The default allocator packs both onto leaf 0: nodes {0,1} and {2,3}.
  EXPECT_EQ(res.jobs[0].start_time, 0.0);
  EXPECT_EQ(res.jobs[1].start_time, 0.0);
  EXPECT_EQ(res.jobs[0].end_time, 112.5);
  EXPECT_EQ(res.jobs[1].end_time, 112.5);
  EXPECT_EQ(res.jobs[0].actual_runtime, 112.5);
  EXPECT_EQ(res.makespan, 112.5);
}

// A short co-runner inflates the long job only while it is present: after
// the short job ends at t = 11.25, the long job's remaining time deflates
// back to factor 1 and it finishes at ~101.25 — later than the isolated
// 100, earlier than the 112.5 a frozen penalty would give.
TEST(DynamicInterferenceTest, ReleaseDeflatesRemainingTime) {
  const Tree tree = make_two_level_tree(2, 4);
  const JobLog log{comm_job(1, 0.0, 2, 100.0, 0.5),
                   comm_job(2, 0.0, 2, 10.0, 0.5)};
  const SimResult res = run_continuous(tree, log, dynamic_options());
  EXPECT_EQ(res.jobs[1].end_time, 11.25);
  EXPECT_NEAR(res.jobs[0].end_time, 101.25, 1e-9);
  EXPECT_GT(res.jobs[0].end_time, 100.0);
  EXPECT_LT(res.jobs[0].end_time, 112.5);
}

// Placing the antagonists on different leaves (explicitly, via a log whose
// second job only fits the other leaf) produces zero external load and the
// exact static runtimes.
TEST(DynamicInterferenceTest, SeparateLeavesDoNotInteract) {
  const Tree tree = make_two_level_tree(2, 4);
  const JobLog log{comm_job(1, 0.0, 4, 100.0, 0.5),
                   comm_job(2, 0.0, 4, 100.0, 0.5)};
  const SimResult res = run_continuous(tree, log, dynamic_options());
  EXPECT_EQ(res.jobs[0].end_time, 100.0);
  EXPECT_EQ(res.jobs[1].end_time, 100.0);
}

// alpha = 0 arms the whole re-evaluation machinery but neutralizes the
// model: every field of every job must equal the static run bit for bit.
TEST(DynamicInterferenceTest, AlphaZeroRecoversStaticResultsExactly) {
  const Tree tree = make_two_level_tree(2, 4);
  JobLog log;
  for (int i = 0; i < 12; ++i)
    log.push_back(comm_job(i + 1, i * 3.0, 1 + (i % 4), 40.0 + i,
                           0.2 + 0.05 * i));
  for (const auto allocator :
       {AllocatorKind::kDefault, AllocatorKind::kBalanced}) {
    SchedOptions stat;
    stat.allocator = allocator;
    SchedOptions dyn = dynamic_options(/*alpha=*/0.0);
    dyn.allocator = allocator;
    const SimResult a = run_continuous(tree, log, stat);
    const SimResult b = run_continuous(tree, log, dyn);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    EXPECT_EQ(a.makespan, b.makespan);
    for (std::size_t i = 0; i < a.jobs.size(); ++i) {
      EXPECT_EQ(a.jobs[i].start_time, b.jobs[i].start_time);
      EXPECT_EQ(a.jobs[i].end_time, b.jobs[i].end_time);
      EXPECT_EQ(a.jobs[i].actual_runtime, b.jobs[i].actual_runtime);
      EXPECT_EQ(a.jobs[i].hit_walltime, b.jobs[i].hit_walltime);
    }
  }
}

// Inflation beyond the requested walltime gets the job killed at exactly
// start + walltime when enforcement is on, and the kill is flagged.
TEST(DynamicInterferenceTest, WalltimeCapsInflation) {
  const Tree tree = make_two_level_tree(2, 4);
  const JobLog log{comm_job(1, 0.0, 2, 100.0, 0.5, /*walltime=*/105.0),
                   comm_job(2, 0.0, 2, 100.0, 0.5, /*walltime=*/1000.0)};
  SchedOptions options = dynamic_options();
  options.enforce_walltime = true;
  const SimResult res = run_continuous(tree, log, options);
  // Both inflate to 112.5; job 1 dies at its 105 s walltime.
  EXPECT_TRUE(res.jobs[0].hit_walltime);
  EXPECT_EQ(res.jobs[0].end_time, 105.0);
  EXPECT_EQ(res.jobs[0].actual_runtime, 105.0);
  // Job 2 deflates once job 1 is gone: it ends strictly before 112.5 but
  // after its isolated 100 s.
  EXPECT_FALSE(res.jobs[1].hit_walltime);
  EXPECT_GT(res.jobs[1].end_time, 100.0);
  EXPECT_LT(res.jobs[1].end_time, 112.5);
}

// QueuePolicy::kColocation defers a communication-heavy job while the load
// on its prospective leaves exceeds coloc_max_external, and starts it the
// moment a completion clears the antagonist load.
TEST(DynamicInterferenceTest, ColocationPolicyDefersAntagonists) {
  const Tree tree = make_two_level_tree(2, 4);
  // A fills 3 nodes of leaf 0; B takes node 3 (leaf 0) + 2 nodes of leaf 1;
  // C would land on leaf 1 next to B's heavy load.
  const JobLog log{comm_job(1, 0.0, 3, 100.0, 0.8),
                   comm_job(2, 0.0, 3, 100.0, 0.8),
                   comm_job(3, 0.0, 2, 50.0, 0.8)};

  SchedOptions fifo;
  const SimResult eager = run_continuous(tree, log, fifo);
  EXPECT_EQ(eager.jobs[2].start_time, 0.0);

  SchedOptions coloc;
  coloc.queue_policy = QueuePolicy::kColocation;
  coloc.audit = AuditLevel::kFull;
  const SimResult gated = run_continuous(tree, log, coloc);
  // Equal loads keep FIFO order: A and B still start immediately (B's
  // prospective external load, one node on A's leaf out of three, is 0.2 —
  // under the 0.25 default threshold).
  EXPECT_EQ(gated.jobs[0].start_time, 0.0);
  EXPECT_EQ(gated.jobs[1].start_time, 0.0);
  // C's leaf-1 neighbourhood carries 2 * 819 / 4096 ≈ 0.4 > 0.25: deferred
  // until A and B complete at t = 100.
  EXPECT_EQ(gated.jobs[2].start_time, 100.0);
}

// kColocation ranks light communication loads first (they pack with
// anything), overriding submit order but keeping FIFO among equals.
TEST(DynamicInterferenceTest, ColocationPolicyRanksLightLoadsFirst) {
  const Tree tree = make_two_level_tree(2, 4);
  JobLog log;
  JobRecord filler = compute_job(1, 0.0, 8, 10.0);
  log.push_back(filler);
  log.push_back(comm_job(2, 1.0, 2, 5.0, 0.9));   // heavy, submitted first
  log.push_back(compute_job(3, 2.0, 8, 3.0));     // light, submitted later
  SchedOptions coloc;
  coloc.queue_policy = QueuePolicy::kColocation;
  const SimResult res = run_continuous(tree, log, coloc);
  // At t = 10 the machine drains; the light job jumps the heavy one.
  EXPECT_EQ(res.jobs[2].start_time, 10.0);
  EXPECT_EQ(res.jobs[1].start_time, 13.0);

  SchedOptions fifo;
  const SimResult base = run_continuous(tree, log, fifo);
  EXPECT_EQ(base.jobs[1].start_time, 10.0);
}

// SchedOptions::runtime_options caps the degradation factor too: the
// model's upper clamp is RuntimeModelOptions::max_ratio.
TEST(DynamicInterferenceTest, RuntimeClampBoundsDegradation) {
  const Tree tree = make_two_level_tree(2, 4);
  const JobLog log{comm_job(1, 0.0, 2, 100.0, 0.5),
                   comm_job(2, 0.0, 2, 100.0, 0.5)};
  SchedOptions options = dynamic_options(/*alpha=*/1e6);
  options.runtime_options.max_ratio = 2.0;
  const SimResult res = run_continuous(tree, log, options);
  // Factor saturates at max_ratio: 100 * 2 = 200.
  EXPECT_EQ(res.jobs[0].end_time, 200.0);
  EXPECT_EQ(res.jobs[1].end_time, 200.0);
}

}  // namespace
}  // namespace commsched
