#include "collectives/schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "collectives/comm_cache.hpp"
#include "util/assert.hpp"

namespace commsched {
namespace {

bool is_pow2(int x) { return x >= 1 && (x & (x - 1)) == 0; }

int ilog2(int x) {
  int l = 0;
  while ((1 << (l + 1)) <= x) ++l;
  return l;
}

TEST(PatternNameTest, Names) {
  EXPECT_STREQ(pattern_name(Pattern::kRecursiveDoubling), "RD");
  EXPECT_STREQ(pattern_name(Pattern::kRecursiveHalvingVD), "RHVD");
  EXPECT_STREQ(pattern_name(Pattern::kBinomial), "Binomial");
  EXPECT_STREQ(pattern_name(Pattern::kRing), "Ring");
  EXPECT_STREQ(pattern_name(Pattern::kPairwiseAlltoall), "Alltoall");
}

TEST(ScheduleTest, SingleProcessHasNoCommunication) {
  for (const Pattern p : {Pattern::kRecursiveDoubling,
                          Pattern::kRecursiveHalvingVD, Pattern::kBinomial,
                          Pattern::kRing, Pattern::kPairwiseAlltoall})
    EXPECT_TRUE(make_schedule(p, 1, 1024).empty());
}

TEST(ScheduleTest, TwoProcessesSingleExchange) {
  for (const Pattern p : {Pattern::kRecursiveDoubling,
                          Pattern::kRecursiveHalvingVD, Pattern::kBinomial,
                          Pattern::kRing, Pattern::kPairwiseAlltoall}) {
    const auto sched = make_schedule(p, 2, 1024);
    ASSERT_EQ(sched.size(), 1u) << pattern_name(p);
    ASSERT_EQ(sched[0].pairs.size(), 1u) << pattern_name(p);
    EXPECT_EQ(sched[0].pairs[0], (std::pair<std::int32_t, std::int32_t>{0, 1}));
  }
}

TEST(ScheduleTest, RecursiveDoublingEightProcs) {
  // The paper's Figure 3: 8 processes, 3 steps; step k partners i <-> i^2^k.
  const auto sched = make_schedule(Pattern::kRecursiveDoubling, 8, 1.0);
  ASSERT_EQ(sched.size(), 3u);
  EXPECT_EQ(sched[0].pairs,
            (std::vector<std::pair<std::int32_t, std::int32_t>>{
                {0, 1}, {2, 3}, {4, 5}, {6, 7}}));
  EXPECT_EQ(sched[1].pairs,
            (std::vector<std::pair<std::int32_t, std::int32_t>>{
                {0, 2}, {1, 3}, {4, 6}, {5, 7}}));
  EXPECT_EQ(sched[2].pairs,
            (std::vector<std::pair<std::int32_t, std::int32_t>>{
                {0, 4}, {1, 5}, {2, 6}, {3, 7}}));
  for (const auto& step : sched) EXPECT_DOUBLE_EQ(step.msize, 1.0);
}

TEST(ScheduleTest, RhvdDistanceHalvesAndMessageDoubles) {
  const double base = 1024.0;
  const auto sched = make_schedule(Pattern::kRecursiveHalvingVD, 8, base);
  ASSERT_EQ(sched.size(), 3u);
  // Step 0: farthest partners (distance 4), base message.
  EXPECT_EQ(sched[0].pairs,
            (std::vector<std::pair<std::int32_t, std::int32_t>>{
                {0, 4}, {1, 5}, {2, 6}, {3, 7}}));
  EXPECT_DOUBLE_EQ(sched[0].msize, base);
  // Step 2: adjacent partners carry the doubled-up vector.
  EXPECT_EQ(sched[2].pairs,
            (std::vector<std::pair<std::int32_t, std::int32_t>>{
                {0, 1}, {2, 3}, {4, 5}, {6, 7}}));
  EXPECT_DOUBLE_EQ(sched[1].msize, 2 * base);
  EXPECT_DOUBLE_EQ(sched[2].msize, 4 * base);
}

TEST(ScheduleTest, RhvdMovesMoreBytesThanRd) {
  // §6.1: "the total number of parallel communications is higher for RHVD".
  for (const int p : {4, 8, 16, 64, 256}) {
    const auto rd = make_schedule(Pattern::kRecursiveDoubling, p, 1024.0);
    const auto rhvd = make_schedule(Pattern::kRecursiveHalvingVD, p, 1024.0);
    EXPECT_GT(total_bytes(rhvd), total_bytes(rd)) << "p=" << p;
  }
}

TEST(ScheduleTest, BinomialStepSizesGrow) {
  const auto sched = make_schedule(Pattern::kBinomial, 8, 64.0);
  ASSERT_EQ(sched.size(), 3u);
  EXPECT_EQ(sched[0].pairs,
            (std::vector<std::pair<std::int32_t, std::int32_t>>{{0, 1}}));
  EXPECT_EQ(sched[1].pairs,
            (std::vector<std::pair<std::int32_t, std::int32_t>>{{0, 2},
                                                                {1, 3}}));
  EXPECT_EQ(sched[2].pairs,
            (std::vector<std::pair<std::int32_t, std::int32_t>>{
                {0, 4}, {1, 5}, {2, 6}, {3, 7}}));
}

TEST(ScheduleTest, BinomialBroadcastReachesEveryRank) {
  for (const int p : {2, 3, 5, 8, 13, 16, 100}) {
    const auto sched = make_schedule(Pattern::kBinomial, p, 1.0);
    std::set<int> reached{0};
    for (const auto& step : sched)
      for (const auto& [a, b] : step.pairs) {
        EXPECT_TRUE(reached.contains(a)) << "sender not yet reached, p=" << p;
        reached.insert(b);
      }
    EXPECT_EQ(reached.size(), static_cast<std::size_t>(p)) << "p=" << p;
  }
}

TEST(ScheduleTest, RingHasOneRepeatedStep) {
  const auto sched = make_schedule(Pattern::kRing, 6, 10.0);
  ASSERT_EQ(sched.size(), 1u);
  EXPECT_EQ(sched[0].repeat, 5);
  EXPECT_EQ(sched[0].pairs.size(), 6u);  // each neighbor link, incl. wrap
  EXPECT_EQ(total_pair_messages(sched), 30);
}

TEST(ScheduleTest, RingOfTwoDoesNotDuplicatePair) {
  const auto sched = make_schedule(Pattern::kRing, 2, 10.0);
  ASSERT_EQ(sched.size(), 1u);
  EXPECT_EQ(sched[0].pairs.size(), 1u);
  EXPECT_EQ(sched[0].repeat, 1);
}

TEST(ScheduleTest, TotalBytesAndMessages) {
  const auto sched = make_schedule(Pattern::kRecursiveDoubling, 8, 100.0);
  EXPECT_DOUBLE_EQ(total_bytes(sched), 3 * 4 * 100.0);
  EXPECT_EQ(total_pair_messages(sched), 12);
}

TEST(ScheduleTest, RejectsInvalidArguments) {
  EXPECT_THROW(make_schedule(Pattern::kRecursiveDoubling, 0, 1.0),
               InvariantError);
  EXPECT_THROW(make_schedule(Pattern::kRecursiveDoubling, 4, -1.0),
               InvariantError);
}

TEST(ScheduleTest, AlltoallPowerOfTwoUsesXorMatchings) {
  const auto sched = make_schedule(Pattern::kPairwiseAlltoall, 8, 5.0);
  ASSERT_EQ(sched.size(), 7u);  // p - 1 steps
  for (std::size_t k = 0; k < sched.size(); ++k) {
    ASSERT_EQ(sched[k].pairs.size(), 4u);  // perfect matching
    for (const auto& [a, b] : sched[k].pairs)
      EXPECT_EQ(a ^ b, static_cast<int>(k) + 1);
    EXPECT_DOUBLE_EQ(sched[k].msize, 5.0);
  }
}

TEST(ScheduleTest, AlltoallCoversEveryPairExactlyOnce) {
  for (const int p : {4, 5, 8, 9, 16, 30}) {
    const auto sched = make_schedule(Pattern::kPairwiseAlltoall, p, 1.0);
    EXPECT_EQ(sched.size(), static_cast<std::size_t>(p - 1));
    std::set<std::pair<int, int>> pairs;
    for (const auto& step : sched)
      for (const auto& pr : step.pairs)
        EXPECT_TRUE(pairs.insert(pr).second) << "pair repeated, p=" << p;
    EXPECT_EQ(pairs.size(), static_cast<std::size_t>(p) * (p - 1) / 2)
        << "p=" << p;
  }
}

TEST(ScheduleTest, AlltoallMovesTheMostBytesAndSteps) {
  // Alltoall volume is O(p^2 * msize): strictly above the constant-msize
  // patterns. The vector-doubling allgather (RHVD) reaches the same total
  // volume (every rank ends up with (p-1)*msize either way), but alltoall
  // needs p-1 synchronized steps to move it versus RHVD's log2(p).
  for (const int p : {8, 32, 128}) {
    const auto a2a = make_schedule(Pattern::kPairwiseAlltoall, p, 1.0);
    for (const Pattern other :
         {Pattern::kRecursiveDoubling, Pattern::kBinomial})
      EXPECT_GT(total_bytes(a2a), total_bytes(make_schedule(other, p, 1.0)))
          << "p=" << p;
    const auto rhvd = make_schedule(Pattern::kRecursiveHalvingVD, p, 1.0);
    EXPECT_DOUBLE_EQ(total_bytes(a2a), total_bytes(rhvd)) << "p=" << p;
    EXPECT_GT(a2a.size(), rhvd.size()) << "p=" << p;
  }
}

TEST(ScheduleTest, AlltoallMaterializationIsCappedAt4096Ranks) {
  // Beyond the old 1024-rank cap: profiles made large-p alltoall affordable,
  // so materialization now goes up to kMaxMaterializedAlltoallRanks (the
  // streaming path has no cap at all — see StreamingMatchesMaterialized).
  const int cap = kMaxMaterializedAlltoallRanks;
  ASSERT_EQ(cap, 4096);
  const auto sched = make_schedule(Pattern::kPairwiseAlltoall, cap, 1.0);
  EXPECT_EQ(sched.size(), static_cast<std::size_t>(cap - 1));
  EXPECT_EQ(total_pair_messages(sched),
            static_cast<std::int64_t>(cap) * (cap - 1) / 2);
  EXPECT_THROW(make_schedule(Pattern::kPairwiseAlltoall, cap + 1, 1.0),
               InvariantError);
}

TEST(ScheduleTest, StreamingMatchesMaterialized) {
  for (const Pattern pattern :
       {Pattern::kRecursiveDoubling, Pattern::kRecursiveHalvingVD,
        Pattern::kBinomial, Pattern::kRing, Pattern::kPairwiseAlltoall})
    for (const int p : {1, 2, 3, 8, 13, 64, 100}) {
      const CommSchedule materialized = make_schedule(pattern, p, 7.0);
      CommSchedule streamed;
      const bool completed = for_each_schedule_step(
          pattern, p, 7.0, [&](const CommStep& step) {
            streamed.push_back(step);
            return true;
          });
      EXPECT_TRUE(completed);
      ASSERT_EQ(streamed.size(), materialized.size())
          << pattern_name(pattern) << " p=" << p;
      for (std::size_t s = 0; s < streamed.size(); ++s) {
        EXPECT_EQ(streamed[s].pairs, materialized[s].pairs);
        EXPECT_DOUBLE_EQ(streamed[s].msize, materialized[s].msize);
        EXPECT_EQ(streamed[s].repeat, materialized[s].repeat);
      }
    }
}

TEST(ScheduleTest, StreamingVisitorCanStopEarly) {
  int visited = 0;
  const bool completed = for_each_schedule_step(
      Pattern::kPairwiseAlltoall, 512, 1.0, [&](const CommStep&) {
        return ++visited < 3;
      });
  EXPECT_FALSE(completed);
  EXPECT_EQ(visited, 3);
}

TEST(ScheduleTest, StreamingAlltoallScalesBeyondMaterializationCap) {
  // 8192 ranks: materialization would be ~32M pairs; streaming touches one
  // step at a time. Count steps and spot-check the XOR matching structure.
  const int p = 8192;
  std::int64_t steps = 0, pairs = 0;
  for_each_schedule_step(Pattern::kPairwiseAlltoall, p, 1.0,
                         [&](const CommStep& step) {
                           ++steps;
                           pairs += static_cast<std::int64_t>(
                               step.pairs.size());
                           return steps < 16;  // prefix is enough
                         });
  EXPECT_EQ(steps, 16);
  EXPECT_EQ(pairs, 16 * (p / 2));  // perfect matchings
}

// ---- Property sweeps over process counts --------------------------------

class PatternSweep
    : public ::testing::TestWithParam<std::tuple<Pattern, int>> {};

TEST_P(PatternSweep, RanksAreInRangeAndPairsDistinct) {
  const auto [pattern, p] = GetParam();
  const auto sched = make_schedule(pattern, p, 1024.0);
  for (const auto& step : sched) {
    std::set<std::pair<int, int>> seen;
    for (const auto& [a, b] : step.pairs) {
      EXPECT_GE(a, 0);
      EXPECT_LT(a, p);
      EXPECT_GE(b, 0);
      EXPECT_LT(b, p);
      EXPECT_NE(a, b);
      EXPECT_TRUE(seen.emplace(a, b).second) << "duplicate pair in step";
    }
    EXPECT_GT(step.msize, 0.0);
    EXPECT_GE(step.repeat, 1);
  }
}

TEST_P(PatternSweep, NoRankTalksTwicePerStep) {
  // Within one synchronized step a rank exchanges with at most one partner.
  // Exceptions: ring steps (two neighbors per rank) and the non-power-of-two
  // alltoall shift (a rank is both a sender and a receiver per step).
  const auto [pattern, p] = GetParam();
  if (pattern == Pattern::kRing) return;
  if (pattern == Pattern::kPairwiseAlltoall && !is_pow2(p)) return;
  const auto sched = make_schedule(pattern, p, 1.0);
  for (const auto& step : sched) {
    std::set<int> busy;
    for (const auto& [a, b] : step.pairs) {
      EXPECT_TRUE(busy.insert(a).second) << "rank " << a << " used twice";
      EXPECT_TRUE(busy.insert(b).second) << "rank " << b << " used twice";
    }
  }
}

TEST_P(PatternSweep, PowerOfTwoStepCountIsLogP) {
  const auto [pattern, p] = GetParam();
  if (!is_pow2(p) || p < 2) return;
  const auto sched = make_schedule(pattern, p, 1.0);
  if (pattern == Pattern::kRing) {
    EXPECT_EQ(sched.size(), 1u);
  } else if (pattern == Pattern::kPairwiseAlltoall) {
    EXPECT_EQ(sched.size(), static_cast<std::size_t>(p - 1));
  } else {
    EXPECT_EQ(sched.size(), static_cast<std::size_t>(ilog2(p)));
  }
}

TEST_P(PatternSweep, RdLikePatternsTouchEveryRank) {
  const auto [pattern, p] = GetParam();
  if (p < 2) return;
  if (pattern != Pattern::kRecursiveDoubling &&
      pattern != Pattern::kRecursiveHalvingVD)
    return;
  const auto sched = make_schedule(pattern, p, 1.0);
  std::set<int> touched;
  for (const auto& step : sched)
    for (const auto& [a, b] : step.pairs) {
      touched.insert(a);
      touched.insert(b);
    }
  EXPECT_EQ(touched.size(), static_cast<std::size_t>(p));
}

TEST_P(PatternSweep, NonPowerOfTwoFoldHasPrePostSteps) {
  const auto [pattern, p] = GetParam();
  if (is_pow2(p) || p < 3) return;
  if (pattern != Pattern::kRecursiveDoubling &&
      pattern != Pattern::kRecursiveHalvingVD)
    return;
  const auto sched = make_schedule(pattern, p, 1.0);
  const int r = p - (1 << ilog2(p));
  // pre + log2(core) + post steps.
  EXPECT_EQ(sched.size(), static_cast<std::size_t>(ilog2(p) + 2));
  EXPECT_EQ(sched.front().pairs.size(), static_cast<std::size_t>(r));
  EXPECT_EQ(sched.back().pairs.size(), static_cast<std::size_t>(r));
  // Pre/post pair the 2r low ranks as (even, odd).
  for (const auto& [a, b] : sched.front().pairs) {
    EXPECT_EQ(a % 2, 0);
    EXPECT_EQ(b, a + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatternsAndSizes, PatternSweep,
    ::testing::Combine(::testing::Values(Pattern::kRecursiveDoubling,
                                         Pattern::kRecursiveHalvingVD,
                                         Pattern::kBinomial, Pattern::kRing,
                                         Pattern::kPairwiseAlltoall),
                       ::testing::Values(2, 3, 4, 5, 7, 8, 12, 16, 31, 32, 64,
                                         100, 128, 512)));

}  // namespace
}  // namespace commsched
