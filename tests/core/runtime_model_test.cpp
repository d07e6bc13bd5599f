#include "core/runtime_model.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace commsched {
namespace {

TEST(CostRatioTest, PlainRatio) {
  EXPECT_DOUBLE_EQ(cost_ratio(50.0, 100.0), 0.5);
  EXPECT_DOUBLE_EQ(cost_ratio(100.0, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(cost_ratio(150.0, 100.0), 1.5);
}

TEST(CostRatioTest, ZeroDefaultCostIsNeutral) {
  EXPECT_DOUBLE_EQ(cost_ratio(10.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(cost_ratio(0.0, 0.0), 1.0);
}

TEST(CostRatioTest, ClampsToConfiguredBounds) {
  const RuntimeModelOptions opts{.min_ratio = 0.5, .max_ratio = 2.0};
  EXPECT_DOUBLE_EQ(cost_ratio(1.0, 100.0, opts), 0.5);
  EXPECT_DOUBLE_EQ(cost_ratio(1000.0, 1.0, opts), 2.0);
  EXPECT_DOUBLE_EQ(cost_ratio(1.5, 1.0, opts), 1.5);
}

TEST(CostRatioTest, RejectsNegativeCosts) {
  EXPECT_THROW(cost_ratio(-1.0, 1.0), InvariantError);
  EXPECT_THROW(cost_ratio(1.0, -1.0), InvariantError);
}

TEST(ModifiedRuntimeTest, PaperEquation7) {
  // T = 100 s, 40% communication; job-aware cost half of default
  // -> T' = 60 + 40 * 0.5 = 80.
  EXPECT_DOUBLE_EQ(modified_runtime(100.0, 0.4, 50.0, 100.0), 80.0);
}

TEST(ModifiedRuntimeTest, WorseAllocationSlowsTheJob) {
  // T' = 60 + 40 * (200/100) = 140.
  EXPECT_DOUBLE_EQ(modified_runtime(100.0, 0.4, 200.0, 100.0), 140.0);
}

TEST(ModifiedRuntimeTest, ZeroCommFractionIsUnchanged) {
  EXPECT_DOUBLE_EQ(modified_runtime(100.0, 0.0, 1.0, 100.0), 100.0);
}

TEST(ModifiedRuntimeTest, FullCommFractionScalesEverything) {
  EXPECT_DOUBLE_EQ(modified_runtime(100.0, 1.0, 25.0, 100.0), 25.0);
}

TEST(ModifiedRuntimeTest, EqualCostsLeaveRuntimeUnchanged) {
  EXPECT_DOUBLE_EQ(modified_runtime(1234.5, 0.7, 42.0, 42.0), 1234.5);
}

TEST(ModifiedRuntimeTest, RuntimeStaysPositive) {
  const double t = modified_runtime(100.0, 1.0, 0.0001, 1000.0);
  EXPECT_GT(t, 0.0);  // min_ratio clamp guarantees this
}

TEST(ModifiedRuntimeTest, RejectsInvalidInput) {
  EXPECT_THROW(modified_runtime(-1.0, 0.5, 1.0, 1.0), InvariantError);
  EXPECT_THROW(modified_runtime(1.0, -0.1, 1.0, 1.0), InvariantError);
  EXPECT_THROW(modified_runtime(1.0, 1.1, 1.0, 1.0), InvariantError);
}

}  // namespace
}  // namespace commsched
