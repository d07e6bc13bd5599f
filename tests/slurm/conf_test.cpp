#include "slurm/conf.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>

#include "util/strings.hpp"

namespace commsched {
namespace {

SlurmConf parse(const std::string& text) {
  std::istringstream in(text);
  return parse_slurm_conf(in);
}

TEST(SlurmConfTest, Defaults) {
  const SlurmConf conf = parse("");
  EXPECT_TRUE(conf.sched.easy_backfill);
  EXPECT_EQ(conf.sched.allocator, AllocatorKind::kDefault);
  EXPECT_EQ(conf.sched.queue_policy, QueuePolicy::kFifo);
  EXPECT_TRUE(conf.topology_aware);
  EXPECT_FALSE(conf.sched.enforce_walltime);
}

TEST(SlurmConfTest, PaperConfiguration) {
  // §3.1/§5.2: FIFO + backfill, select/linear, topology/tree, job-aware on.
  const SlurmConf conf = parse(
      "SchedulerType=sched/backfill\n"
      "SelectType=select/linear\n"
      "TopologyPlugin=topology/tree\n"
      "JobAware=adaptive\n");
  EXPECT_TRUE(conf.sched.easy_backfill);
  EXPECT_EQ(conf.sched.allocator, AllocatorKind::kAdaptive);
  EXPECT_TRUE(conf.topology_aware);
}

TEST(SlurmConfTest, BuiltinSchedulerDisablesBackfill) {
  EXPECT_FALSE(parse("SchedulerType=sched/builtin\n").sched.easy_backfill);
}

TEST(SlurmConfTest, PriorityPlugins) {
  EXPECT_EQ(parse("PriorityType=priority/sjf\n").sched.queue_policy,
            QueuePolicy::kShortestJobFirst);
  EXPECT_EQ(parse("PriorityType=priority/smallest\n").sched.queue_policy,
            QueuePolicy::kSmallestJobFirst);
  EXPECT_EQ(parse("PriorityType=priority/fifo\n").sched.queue_policy,
            QueuePolicy::kFifo);
}

TEST(SlurmConfTest, AllAllocatorValues) {
  for (const char* name :
       {"default", "greedy", "balanced", "adaptive", "exclusive", "io_aware",
        "sa"}) {
    const SlurmConf conf = parse(std::string("JobAware=") + name + "\n");
    EXPECT_STREQ(allocator_kind_name(conf.sched.allocator), name);
  }
}

TEST(SlurmConfTest, NumericAndBooleanKnobs) {
  const SlurmConf conf = parse(
      "BackfillDepth=50\n"
      "EnforceWallTime=yes\n");
  EXPECT_EQ(conf.sched.backfill_depth, 50);
  EXPECT_TRUE(conf.sched.enforce_walltime);
}

TEST(SlurmConfTest, CommentsAndUnknownKeysIgnored) {
  const SlurmConf conf = parse(
      "# production config\n"
      "ClusterName=hpc2010   # unmodeled key\n"
      "JobAware=balanced  # job-aware on\n");
  EXPECT_EQ(conf.sched.allocator, AllocatorKind::kBalanced);
}

TEST(SlurmConfTest, Rejections) {
  EXPECT_THROW(parse("SchedulerType=sched/unknown\n"), ParseError);
  EXPECT_THROW(parse("SelectType=select/cons_res\n"), ParseError);
  EXPECT_THROW(parse("TopologyPlugin=topology/3d_torus\n"), ParseError);
  EXPECT_THROW(parse("PriorityType=priority/multifactor\n"), ParseError);
  EXPECT_THROW(parse("JobAware=psychic\n"), ParseError);
  EXPECT_THROW(parse("BackfillDepth=0\n"), ParseError);
  EXPECT_THROW(parse("EnforceWallTime=maybe\n"), ParseError);
  EXPECT_THROW(parse("not a key value line\n"), ParseError);
}

TEST(SlurmConfTest, SelectTypeParametersConfigureTheSaAllocator) {
  const SlurmConf conf = parse(
      "JobAware=sa\n"
      "SelectTypeParameters=sa_budget=5000, sa_seed=7,sa_verify=16\n");
  EXPECT_EQ(conf.sched.allocator, AllocatorKind::kSa);
  EXPECT_EQ(conf.sched.sa.budget, 5000);
  EXPECT_EQ(conf.sched.sa.seed, 7u);
  EXPECT_EQ(conf.sched.sa.verify_stride, 16);

  // The bare `sa` token alone selects the policy (knobs stay default).
  const SlurmConf bare = parse("SelectTypeParameters=sa\n");
  EXPECT_EQ(bare.sched.allocator, AllocatorKind::kSa);
  EXPECT_EQ(bare.sched.sa.budget, SaOptions{}.budget);
}

TEST(SlurmConfTest, SelectTypeParametersRejections) {
  EXPECT_THROW(parse("SelectTypeParameters=cr_core\n"), ParseError);
  EXPECT_THROW(parse("SelectTypeParameters=sa_budget=lots\n"), ParseError);
  EXPECT_THROW(parse("SelectTypeParameters=sa_verify=-2\n"), ParseError);
  // Unknown-token errors teach the valid vocabulary.
  try {
    parse("SelectTypeParameters=cr_core\n");
    FAIL() << "unknown token must throw";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown SelectTypeParameters token"),
              std::string::npos);
    EXPECT_NE(what.find("sa_budget=<int>"), std::string::npos) << what;
  }
}

TEST(SlurmConfTest, IntegerValuesThatWouldWrapAreRejected) {
  // 2^32 + 1 narrows to 1 and 2^31 to INT_MIN; neither may parse.
  for (const char* line :
       {"SelectTypeParameters=sa_budget=4294967297\n",
        "SelectTypeParameters=sa_budget=-2147483649\n",
        "SelectTypeParameters=sa_verify=2147483648\n",
        "AllocdParameters=queue=4294967297\n",
        "AllocdParameters=deadline_ms=4294967296\n",
        "AllocdParameters=idle_ms=2147483648\n",
        "AllocdParameters=write_ms=4294967297\n",
        "BackfillDepth=4294967297\n"}) {
    EXPECT_THROW(parse(line), ParseError) << line;
  }
  // INT_MAX itself still fits.
  EXPECT_EQ(parse("BackfillDepth=2147483647\n").sched.backfill_depth,
            2147483647);
  // The seed is 64 unsigned bits: no sign, nothing past UINT64_MAX.
  EXPECT_THROW(parse("SelectTypeParameters=sa_seed=-1\n"), ParseError);
  EXPECT_THROW(parse("SelectTypeParameters=sa_seed=18446744073709551616\n"),
               ParseError);
}

TEST(SlurmConfTest, SaSeedRoundTripsOverAll64Bits) {
  for (const std::uint64_t seed :
       {std::uint64_t{1} << 63, std::numeric_limits<std::uint64_t>::max()}) {
    SlurmConf conf;
    conf.sched.sa.seed = seed;
    EXPECT_EQ(parse(write_slurm_conf(conf)).sched.sa.seed, seed);
  }
}

TEST(SlurmConfTest, UnknownJobAwareErrorListsRegisteredPolicies) {
  try {
    parse("JobAware=psychic\n");
    FAIL() << "unknown policy must throw";
  } catch (const ParseError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(allocator_kind_names()), std::string::npos)
        << what;
    EXPECT_NE(what.find("sa"), std::string::npos);
  }
}

TEST(SlurmConfTest, SaKnobsRoundTripThroughWrite) {
  SlurmConf conf;
  conf.sched.allocator = AllocatorKind::kSa;
  conf.sched.sa.budget = 4321;
  conf.sched.sa.seed = 99;
  conf.sched.sa.verify_stride = 8;
  const SlurmConf parsed = parse(write_slurm_conf(conf));
  EXPECT_EQ(parsed.sched.allocator, AllocatorKind::kSa);
  EXPECT_EQ(parsed.sched.sa.budget, conf.sched.sa.budget);
  EXPECT_EQ(parsed.sched.sa.seed, conf.sched.sa.seed);
  EXPECT_EQ(parsed.sched.sa.verify_stride, conf.sched.sa.verify_stride);

  // Defaults stay silent: a default-constructed conf emits no
  // SelectTypeParameters line at all.
  EXPECT_EQ(write_slurm_conf(SlurmConf{}).find("SelectTypeParameters"),
            std::string::npos);
}

TEST(SlurmConfTest, AllocdParametersParse) {
  const SlurmConf conf = parse(
      "AllocdParameters=socket=/run/allocd.sock,queue=256,"
      "deadline_ms=50,idle_ms=1000,write_ms=250\n");
  EXPECT_EQ(conf.serve.socket_path, "/run/allocd.sock");
  EXPECT_EQ(conf.serve.queue_depth, 256);
  EXPECT_EQ(conf.serve.default_deadline_ms, 50);
  EXPECT_EQ(conf.serve.idle_timeout_ms, 1000);
  EXPECT_EQ(conf.serve.write_timeout_ms, 250);

  // Defaults without the key, and partial specs keep the rest default.
  const SlurmConf bare = parse("");
  EXPECT_EQ(bare.serve.queue_depth, ServeConf{}.queue_depth);
  const SlurmConf partial = parse("AllocdParameters=idle_ms=2\n");
  EXPECT_EQ(partial.serve.idle_timeout_ms, 2);
  EXPECT_EQ(partial.serve.queue_depth, ServeConf{}.queue_depth);
  EXPECT_EQ(partial.serve.socket_path, ServeConf{}.socket_path);
}

TEST(SlurmConfTest, AllocdParametersRejections) {
  EXPECT_THROW(parse("AllocdParameters=socket=\n"), ParseError);
  EXPECT_THROW(parse("AllocdParameters=queue=0\n"), ParseError);
  EXPECT_THROW(parse("AllocdParameters=deadline_ms=-5\n"), ParseError);
  EXPECT_THROW(parse("AllocdParameters=idle_ms=soon\n"), ParseError);
  EXPECT_THROW(parse("AllocdParameters=write_ms=-1\n"), ParseError);
  // Unknown-token errors teach the valid vocabulary. The daemon serves
  // from one loop thread, so the old worker knobs are unknown too.
  for (const char* token : {"turbo=1", "threads=4", "batch=8"}) {
    try {
      parse(std::string("AllocdParameters=") + token + "\n");
      FAIL() << "unknown token " << token << " must throw";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown AllocdParameters token"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find("socket="), std::string::npos);
    }
  }
}

TEST(SlurmConfTest, AllocdParametersRoundTripThroughWrite) {
  SlurmConf conf;
  conf.serve.socket_path = "/tmp/allocd.sock";
  conf.serve.queue_depth = 2048;
  conf.serve.default_deadline_ms = 10;
  conf.serve.idle_timeout_ms = 60000;
  conf.serve.write_timeout_ms = 100;
  const SlurmConf parsed = parse(write_slurm_conf(conf));
  EXPECT_EQ(parsed.serve.socket_path, conf.serve.socket_path);
  EXPECT_EQ(parsed.serve.queue_depth, conf.serve.queue_depth);
  EXPECT_EQ(parsed.serve.default_deadline_ms, conf.serve.default_deadline_ms);
  EXPECT_EQ(parsed.serve.idle_timeout_ms, conf.serve.idle_timeout_ms);
  EXPECT_EQ(parsed.serve.write_timeout_ms, conf.serve.write_timeout_ms);

  // Defaults stay silent: no AllocdParameters line for a default conf.
  EXPECT_EQ(write_slurm_conf(SlurmConf{}).find("AllocdParameters"),
            std::string::npos);
}

TEST(SlurmConfTest, WriteThenParseRoundTrips) {
  SlurmConf conf;
  conf.sched.easy_backfill = false;
  conf.sched.allocator = AllocatorKind::kBalanced;
  conf.sched.queue_policy = QueuePolicy::kShortestJobFirst;
  conf.sched.backfill_depth = 77;
  conf.sched.enforce_walltime = true;
  conf.topology_aware = false;
  const SlurmConf parsed = parse(write_slurm_conf(conf));
  EXPECT_EQ(parsed.sched.easy_backfill, conf.sched.easy_backfill);
  EXPECT_EQ(parsed.sched.allocator, conf.sched.allocator);
  EXPECT_EQ(parsed.sched.queue_policy, conf.sched.queue_policy);
  EXPECT_EQ(parsed.sched.backfill_depth, conf.sched.backfill_depth);
  EXPECT_EQ(parsed.sched.enforce_walltime, conf.sched.enforce_walltime);
  EXPECT_EQ(parsed.topology_aware, conf.topology_aware);
}

}  // namespace
}  // namespace commsched
