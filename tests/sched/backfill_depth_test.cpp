// Backfill-depth and scheduling-pressure behaviours of the simulator that
// the main simulator_test does not cover: bf_max_job_test-style depth
// limits, simultaneous submissions, and queue-policy interaction with
// backfilling under sustained backlog.
#include <gtest/gtest.h>

#include <string>

#include "metrics/extended.hpp"
#include "metrics/summary.hpp"
#include "sched/simulator.hpp"
#include "topology/builders.hpp"
#include "workload/mixes.hpp"
#include "workload/synthetic.hpp"

namespace commsched {
namespace {

JobRecord job(WorkloadJobId id, double submit, int nodes, double runtime,
              double walltime = 0.0) {
  JobRecord j;
  j.id = id;
  j.submit_time = submit;
  j.num_nodes = nodes;
  j.runtime = runtime;
  j.walltime = walltime > 0.0 ? walltime : runtime;
  return j;
}

TEST(BackfillDepthTest, DepthLimitStopsScanningTheQueue) {
  // Machine 8 nodes. Job 1 holds 6 until t=100, so the 8-node head waits
  // for it and 2 nodes stay free. Both later jobs would end before t=100;
  // job 3 needs 4 nodes and cannot start, job 4 needs 2 and can, but it is
  // the second backfill candidate. Depth 1 stops at job 3.
  const Tree tree = make_figure2_tree();
  const JobLog log{job(1, 0.0, 6, 100.0),   // running until t=100
                   job(2, 1.0, 8, 100.0),   // blocked head
                   job(3, 2.0, 4, 50.0),    // candidate 1: too large
                   job(4, 3.0, 2, 50.0)};   // candidate 2: fits
  for (const SimEngine engine : {SimEngine::kFast, SimEngine::kReference}) {
    SCOPED_TRACE(engine == SimEngine::kFast ? "fast" : "reference");
    SchedOptions shallow;
    shallow.engine = engine;
    shallow.backfill_depth = 1;
    const SimResult a = run_continuous(tree, log, shallow);
    SchedOptions deep = shallow;
    deep.backfill_depth = 2;
    const SimResult b = run_continuous(tree, log, deep);
    // Depth 2 backfills job 4 at its submission; depth 1 leaves it behind
    // the head, which runs 100-200, and job 3.
    EXPECT_EQ(b.jobs[3].start_time, 3.0);
    EXPECT_EQ(a.jobs[3].start_time, 200.0);
    for (const SimResult* r : {&a, &b}) {
      EXPECT_EQ(r->jobs[1].start_time, 100.0);
      EXPECT_EQ(r->jobs[2].start_time, 200.0);
    }
  }
}

TEST(BackfillDepthTest, TooLargeJobsCountTowardTheDepth) {
  // Machine 8 nodes, 2 free until t=1000. Behind the 8-node head queue 70
  // jobs of 4 nodes, more than one 64-rank word of them, then a 2-node job
  // that would end long before the head's reservation: backfill candidate
  // 71. It starts at its submission iff the depth reaches 71, under both
  // engines. Otherwise it waits until the 4-node jobs, two at a time from
  // t=1100 in 100 s rounds, have all run.
  const Tree tree = make_figure2_tree();
  constexpr int kTooLarge = 70;
  JobLog log{job(1, 0.0, 6, 1000.0), job(2, 1.0, 8, 100.0)};
  for (int i = 0; i < kTooLarge; ++i) log.push_back(job(3 + i, 2.0, 4, 100.0));
  log.push_back(job(3 + kTooLarge, 3.0, 2, 10.0));
  const JobRecord& fits = log.back();
  for (const SimEngine engine : {SimEngine::kFast, SimEngine::kReference}) {
    for (const int depth : {1, 63, 64, 65, kTooLarge, kTooLarge + 1,
                            kTooLarge + 2, 1000000}) {
      SCOPED_TRACE(std::string(engine == SimEngine::kFast ? "fast"
                                                           : "reference") +
                   " depth " + std::to_string(depth));
      SchedOptions options;
      options.engine = engine;
      options.backfill_depth = depth;
      const SimResult r = run_continuous(tree, log, options);
      EXPECT_EQ(r.jobs.back().start_time,
                depth > kTooLarge ? fits.submit_time
                                  : 1100.0 + 100.0 * (kTooLarge / 2));
    }
  }
}

TEST(BackfillDepthTest, SimultaneousSubmissionsKeepIdOrder) {
  const Tree tree = make_figure2_tree();
  JobLog log{job(1, 5.0, 4, 100.0), job(2, 5.0, 4, 100.0),
             job(3, 5.0, 4, 100.0)};
  const SimResult r = run_continuous(tree, log, SchedOptions{});
  // Two fit immediately (8 nodes), the third queues.
  EXPECT_DOUBLE_EQ(r.jobs[0].start_time, 5.0);
  EXPECT_DOUBLE_EQ(r.jobs[1].start_time, 5.0);
  EXPECT_DOUBLE_EQ(r.jobs[2].start_time, 105.0);
}

TEST(BackfillDepthTest, ZeroWaitWhenMachineIsEmptyEnough) {
  const Tree tree = make_two_level_tree(4, 8);
  JobLog log;
  for (int i = 0; i < 8; ++i) log.push_back(job(i + 1, i * 10.0, 4, 50.0));
  const SimResult r = run_continuous(tree, log, SchedOptions{});
  for (const auto& jr : r.jobs) EXPECT_DOUBLE_EQ(jr.wait_time(), 0.0);
}

TEST(QueuePolicyUnderLoadTest, SjfReducesMeanSlowdownOnBacklog) {
  // Classic queueing result: under backlog, shortest-job-first cuts the
  // mean bounded slowdown relative to FIFO. Use a backlogged synthetic log.
  const Tree tree = make_two_level_tree(4, 8);  // 32 nodes
  LogProfile p = theta_profile();
  p.machine_nodes = 32;
  p.min_exp = 1;
  p.max_exp = 4;
  p.target_load = 1.4;
  JobLog log = generate_log(p, 300, 2024);
  apply_mix(log, uniform_mix(Pattern::kRecursiveDoubling, 0.5, 0.5), 2025);

  SchedOptions fifo;
  const DistSummary fifo_slow =
      slowdown_summary(run_continuous(tree, log, fifo));
  SchedOptions sjf;
  sjf.queue_policy = QueuePolicy::kShortestJobFirst;
  const DistSummary sjf_slow =
      slowdown_summary(run_continuous(tree, log, sjf));
  EXPECT_LT(sjf_slow.mean, fifo_slow.mean);
}

TEST(QueuePolicyUnderLoadTest, PoliciesNeverLoseJobs) {
  const Tree tree = make_two_level_tree(4, 8);
  LogProfile p = theta_profile();
  p.machine_nodes = 32;
  p.min_exp = 0;
  p.max_exp = 5;
  p.target_load = 1.2;
  JobLog log = generate_log(p, 200, 7);
  apply_mix(log, uniform_mix(Pattern::kBinomial, 0.9, 0.5), 8);
  for (const QueuePolicy policy :
       {QueuePolicy::kFifo, QueuePolicy::kShortestJobFirst,
        QueuePolicy::kSmallestJobFirst}) {
    SchedOptions opts;
    opts.queue_policy = policy;
    const SimResult r = run_continuous(tree, log, opts);
    ASSERT_EQ(r.jobs.size(), log.size());
    for (const auto& jr : r.jobs) {
      EXPECT_GE(jr.start_time, jr.submit_time);
      EXPECT_GT(jr.actual_runtime, 0.0);
    }
  }
}

TEST(BackfillDepthTest, WalltimeOverestimatesWeakenBackfill) {
  // When everyone requests the queue maximum, EASY's reservations become
  // pessimistic and fewer jobs jump ahead — waits should not improve.
  const Tree tree = make_two_level_tree(4, 8);
  LogProfile accurate = theta_profile();
  accurate.machine_nodes = 32;
  accurate.min_exp = 1;
  accurate.max_exp = 4;
  accurate.target_load = 1.3;
  LogProfile sloppy = accurate;
  sloppy.default_walltime_fraction = 1.0;
  sloppy.default_walltime = 24.0 * 3600.0;

  const JobLog log_a = generate_log(accurate, 250, 99);
  const JobLog log_b = generate_log(sloppy, 250, 99);
  JobLog a = log_a, b = log_b;
  apply_mix(a, uniform_mix(Pattern::kRecursiveDoubling, 0.5, 0.5), 100);
  apply_mix(b, uniform_mix(Pattern::kRecursiveDoubling, 0.5, 0.5), 100);
  const RunSummary sa = summarize(run_continuous(tree, a, SchedOptions{}));
  const RunSummary sb = summarize(run_continuous(tree, b, SchedOptions{}));
  EXPECT_GE(sb.total_wait_hours, sa.total_wait_hours * 0.95);
}

}  // namespace
}  // namespace commsched
