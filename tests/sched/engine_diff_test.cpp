// Differential lockdown of the two event-loop engines (DESIGN.md
// "Million-job event loop"): SimEngine::kFast must reproduce
// SimEngine::kReference bit for bit — every JobResult field, the makespan
// and the cache counters — across fuzzed logs, allocators, queue policies,
// backfill settings and walltime enforcement. Any divergence means the
// indexed fast path changed a scheduling decision, which is a bug by
// definition regardless of which answer looks better.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/allocator_factory.hpp"
#include "sched/simulator.hpp"
#include "topology/builders.hpp"
#include "workload/mixes.hpp"
#include "workload/synthetic.hpp"

namespace commsched {
namespace {

// Returns how many jobs' placements priced apart from default's (an Eq. 7
// ratio other than 1), so a leg can show it exercised that path. A leg
// stops at its first diverging job, after reporting each of that job's
// fields: the jobs after it mostly diverge in its wake and would bury it.
int expect_identical(const SimResult& fast, const SimResult& ref,
                     const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(fast.jobs.size(), ref.jobs.size());
  if (fast.jobs.size() != ref.jobs.size()) return 0;
  int priced_apart = 0;
  EXPECT_EQ(fast.allocator_name, ref.allocator_name);
  EXPECT_EQ(fast.makespan, ref.makespan);  // exact, not near
  // Every failed EXPECT adds one part to the running test's result.
  const ::testing::TestResult& result =
      *::testing::UnitTest::GetInstance()->current_test_info()->result();
  for (std::size_t i = 0; i < ref.jobs.size(); ++i) {
    const JobResult& f = fast.jobs[i];
    const JobResult& r = ref.jobs[i];
    const int failures = result.total_part_count();
    SCOPED_TRACE("job index " + std::to_string(i));
    EXPECT_EQ(f.id, r.id);
    EXPECT_EQ(f.num_nodes, r.num_nodes);
    EXPECT_EQ(f.comm_intensive, r.comm_intensive);
    EXPECT_EQ(f.pattern, r.pattern);
    EXPECT_EQ(f.submit_time, r.submit_time);
    EXPECT_EQ(f.start_time, r.start_time);
    EXPECT_EQ(f.end_time, r.end_time);
    EXPECT_EQ(f.original_runtime, r.original_runtime);
    EXPECT_EQ(f.actual_runtime, r.actual_runtime);
    EXPECT_EQ(f.cost, r.cost);
    EXPECT_EQ(f.cost_default, r.cost_default);
    EXPECT_EQ(f.io_cost, r.io_cost);
    EXPECT_EQ(f.io_cost_default, r.io_cost_default);
    EXPECT_EQ(f.hit_walltime, r.hit_walltime);
    if (result.total_part_count() != failures) return priced_apart;
    if (r.cost != r.cost_default) ++priced_apart;
  }
  // Same decisions => same pricing calls => same cache traffic.
  EXPECT_EQ(fast.cache_stats.profile_hits, ref.cache_stats.profile_hits);
  EXPECT_EQ(fast.cache_stats.profile_misses,
            ref.cache_stats.profile_misses);
  return priced_apart;
}

int run_both_and_compare(const Tree& tree, const JobLog& log,
                         SchedOptions options, const std::string& label) {
  options.engine = SimEngine::kFast;
  const SimResult fast = run_continuous(tree, log, options);
  options.engine = SimEngine::kReference;
  const SimResult ref = run_continuous(tree, log, options);
  return expect_identical(fast, ref, label);
}

JobLog fuzz_log(const Tree& tree, int n_jobs, std::uint64_t seed,
                double comm_percent = 0.9) {
  // A backlogged profile shrunk onto the test tree keeps the queue deep, so
  // backfill and reservation logic is exercised constantly.
  const LogProfile profile =
      scale_profile(theta_profile(), tree.node_count());
  JobLog log = generate_log(profile, n_jobs, seed);
  apply_mix(log, uniform_mix(Pattern::kRecursiveDoubling, comm_percent),
            seed ^ 0x9E3779B97F4A7C15ull);
  return log;
}

TEST(EngineDiffTest, FuzzedLogsAcrossAllocators) {
  const Tree tree = make_two_level_tree(4, 8);
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const JobLog log = fuzz_log(tree, 160, seed);
    for (const AllocatorKind kind : kAllAllocatorKinds) {
      SchedOptions options;
      options.allocator = kind;
      run_both_and_compare(tree, log, options,
                           std::string("seed ") + std::to_string(seed) +
                               " allocator " + allocator_kind_name(kind));
    }
  }
  // On the 4 x 8 tree the jobs are so small that every placement prices
  // like default's; on an 8 x 16 tree the Eq. 7 ratio leaves 1.
  const Tree wide = make_two_level_tree(8, 16);
  int priced_apart = 0;
  for (const std::uint64_t seed : {11ull, 22ull}) {
    const JobLog log = fuzz_log(wide, 160, seed);
    for (const AllocatorKind kind : kAllAllocatorKinds) {
      SchedOptions options;
      options.allocator = kind;
      priced_apart += run_both_and_compare(
          wide, log, options,
          std::string("8x16 seed ") + std::to_string(seed) + " allocator " +
              allocator_kind_name(kind));
    }
  }
  EXPECT_GT(priced_apart, 0);
}

TEST(EngineDiffTest, QueuePoliciesTimesBackfill) {
  const Tree tree = make_figure2_tree();
  const JobLog log = fuzz_log(tree, 120, 7);
  for (const QueuePolicy policy :
       {QueuePolicy::kFifo, QueuePolicy::kShortestJobFirst,
        QueuePolicy::kSmallestJobFirst}) {
    for (const bool backfill : {false, true}) {
      for (const int depth : {1, 3, 200}) {
        if (!backfill && depth != 200) continue;  // depth is a no-op then
        SchedOptions options;
        options.queue_policy = policy;
        options.easy_backfill = backfill;
        options.backfill_depth = depth;
        run_both_and_compare(
            tree, log, options,
            "policy " + std::to_string(static_cast<int>(policy)) +
                " backfill " + std::to_string(backfill) + " depth " +
                std::to_string(depth));
      }
    }
  }
}

TEST(EngineDiffTest, EnforcedWalltimeAndComputeOnlyLogs) {
  const Tree tree = make_two_level_tree(4, 8);
  for (const double comm_percent : {0.0, 0.6}) {
    const JobLog log = fuzz_log(tree, 140, 99, comm_percent);
    SchedOptions options;
    options.allocator = AllocatorKind::kBalanced;
    options.enforce_walltime = true;
    run_both_and_compare(tree, log, options,
                         "enforce_walltime comm_percent " +
                             std::to_string(comm_percent));
  }
}

TEST(EngineDiffTest, ExclusiveAndIoAwareAllocators) {
  const Tree tree = make_two_level_tree(4, 8);
  JobLog log = generate_log(scale_profile(theta_profile(), tree.node_count()),
                            120, 5);
  MixSpec mix = uniform_mix(Pattern::kRecursiveDoubling, 0.7);
  mix.io_percent = 0.4;
  mix.io_fraction = 0.3;
  apply_mix(log, mix, 17);
  for (const AllocatorKind kind :
       {AllocatorKind::kExclusive, AllocatorKind::kIoAware}) {
    SchedOptions options;
    options.allocator = kind;
    run_both_and_compare(tree, log, options,
                         std::string("allocator ") +
                             allocator_kind_name(kind));
  }
}

// The fast engine's backfill skips a 64-rank word of the queue whose
// smallest pending job needs more nodes than are free, and counts its jobs
// against backfill_depth all the same. Long backlogged logs keep hundreds of
// jobs queued, so the window crosses many words and can end inside one;
// neither log length is a multiple of 64, so the last word is partial.
// Depths straddle one word (63, 64, 65) and reach past the queue (10^6).
// Colocation may defer a job that fits and exclusive may refuse one, so a
// job that fits the free count does not always start.
TEST(EngineDiffTest, BackfillWindowAcrossRankWords) {
  const Tree tree = make_two_level_tree(8, 16);
  for (const int n_jobs : {2010, 2085}) {
    const JobLog log =
        fuzz_log(tree, n_jobs, static_cast<std::uint64_t>(n_jobs));
    ASSERT_NE(log.size() % 64, 0u);
    for (const AllocatorKind kind :
         {AllocatorKind::kDefault, AllocatorKind::kExclusive}) {
      for (const QueuePolicy policy :
           {QueuePolicy::kFifo, QueuePolicy::kShortestJobFirst,
            QueuePolicy::kSmallestJobFirst, QueuePolicy::kColocation}) {
        for (const int depth : {1, 63, 64, 65, 200, 1000000}) {
          SchedOptions options;
          options.allocator = kind;
          options.queue_policy = policy;
          options.backfill_depth = depth;
          run_both_and_compare(
              tree, log, options,
              std::to_string(n_jobs) + " jobs allocator " +
                  allocator_kind_name(kind) + " policy " +
                  std::to_string(static_cast<int>(policy)) + " depth " +
                  std::to_string(depth));
        }
      }
    }
  }
}

// The search-based allocator (DESIGN.md "Delta-cost evaluation & search
// allocators") under both engines: the anneal runs per select_into and must
// be a pure function of (options, state, request), so the fast engine's
// reordered bookkeeping cannot perturb a single placement. Exercised at two
// anneal seeds and with the in-anneal delta-vs-full verification on.
TEST(EngineDiffTest, SimulatedAnnealingAllocator) {
  const Tree tree = make_two_level_tree(4, 8);
  const Tree wide = make_two_level_tree(8, 16);
  int priced_apart = 0;  // on the 8 x 16 leg, see FuzzedLogsAcrossAllocators
  for (const std::uint64_t seed : {13ull, 29ull}) {
    for (const std::uint64_t sa_seed : {SaOptions{}.seed, std::uint64_t{7}}) {
      SchedOptions options;
      options.allocator = AllocatorKind::kSa;
      options.sa.budget = 300;  // keep the diff test fast; plenty of accepts
      options.sa.seed = sa_seed;
      const std::string label = "seed " + std::to_string(seed) +
                                " sa seed " + std::to_string(sa_seed);
      run_both_and_compare(tree, fuzz_log(tree, 140, seed), options, label);
      priced_apart += run_both_and_compare(wide, fuzz_log(wide, 140, seed),
                                           options, "8x16 " + label);
    }
  }
  EXPECT_GT(priced_apart, 0);
  // Full audit layers the auditor's from-scratch claimed-cost cross-check
  // and verify_stride=1 in-anneal recomputes on top of the engine diff.
  const JobLog log = fuzz_log(tree, 60, 5);
  SchedOptions options;
  options.allocator = AllocatorKind::kSa;
  options.sa.budget = 200;
  options.audit = AuditLevel::kFull;
  run_both_and_compare(tree, log, options, "sa under full audit");
}

// Dynamic interference axes (DESIGN.md "Dynamic interference"): runtime
// re-evaluation on/off × colocation policy × walltime enforcement. The fast
// engine reschedules ends incrementally through the per-leaf running-job
// index and the completion-heap fix-ups; the reference engine rescales by
// scanning every running job. Bit-identical results pin that the two
// strategies rescale exactly the same jobs to exactly the same times.
TEST(EngineDiffTest, DynamicInterferenceTimesColocation) {
  const Tree tree = make_two_level_tree(4, 8);
  for (const std::uint64_t seed : {3ull, 44ull}) {
    const JobLog log = fuzz_log(tree, 140, seed);
    for (const bool dynamic : {false, true}) {
      for (const QueuePolicy policy :
           {QueuePolicy::kFifo, QueuePolicy::kColocation}) {
        for (const bool walltime : {false, true}) {
          SchedOptions options;
          options.allocator = AllocatorKind::kBalanced;
          options.degradation.enabled = dynamic;
          options.degradation.alpha = 2.0;  // bite hard: many re-evaluations
          options.queue_policy = policy;
          options.enforce_walltime = walltime;
          run_both_and_compare(
              tree, log, options,
              "seed " + std::to_string(seed) + " dynamic " +
                  std::to_string(dynamic) + " policy " +
                  std::to_string(static_cast<int>(policy)) + " walltime " +
                  std::to_string(walltime));
        }
      }
    }
  }
}

// The same dynamic axes under full auditing: every event additionally runs
// the shadow load ledger, the end-event/occupancy consistency check and the
// from-scratch ClusterState::validate(), so a re-evaluation that desyncs
// the heap from the bookkeeping throws instead of silently diverging.
TEST(EngineDiffTest, DynamicInterferenceUnderFullAudit) {
  const Tree tree = make_figure2_tree();
  const JobLog log = fuzz_log(tree, 80, 21);
  SchedOptions options;
  options.allocator = AllocatorKind::kBalanced;
  options.degradation.enabled = true;
  options.degradation.alpha = 2.0;
  options.queue_policy = QueuePolicy::kColocation;
  options.audit = AuditLevel::kFull;
  run_both_and_compare(tree, log, options, "dynamic colocation, full audit");
}

// Degenerate shapes the indexed structures must not trip on: empty log,
// single job, all jobs identical (maximal tie-breaking pressure), and every
// job full-machine width (running set of size one, no backfill ever fits).
TEST(EngineDiffTest, DegenerateShapes) {
  const Tree tree = make_figure2_tree();
  run_both_and_compare(tree, JobLog{}, SchedOptions{}, "empty log");

  JobRecord one;
  one.id = 1;
  one.submit_time = 10.0;
  one.num_nodes = tree.node_count();
  one.runtime = 60.0;
  one.walltime = 90.0;
  run_both_and_compare(tree, JobLog{one}, SchedOptions{}, "single job");

  JobLog ties;
  for (int i = 0; i < 40; ++i) {
    JobRecord j;
    j.id = i + 1;
    j.submit_time = 0.0;
    j.num_nodes = 2;
    j.runtime = 100.0;
    j.walltime = 100.0;
    ties.push_back(j);
  }
  for (const QueuePolicy policy :
       {QueuePolicy::kFifo, QueuePolicy::kShortestJobFirst,
        QueuePolicy::kSmallestJobFirst}) {
    SchedOptions options;
    options.queue_policy = policy;
    run_both_and_compare(tree, ties, options,
                         "identical jobs, policy " +
                             std::to_string(static_cast<int>(policy)));
  }

  JobLog wide;
  for (int i = 0; i < 20; ++i) {
    JobRecord j;
    j.id = i + 1;
    j.submit_time = static_cast<double>(i);
    j.num_nodes = tree.node_count();
    j.runtime = 50.0 + i;
    j.walltime = 60.0 + i;
    wide.push_back(j);
  }
  run_both_and_compare(tree, wide, SchedOptions{}, "full-machine jobs");
}

}  // namespace
}  // namespace commsched
