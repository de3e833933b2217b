#include "gepc/topup.h"

#include <gtest/gtest.h>

#include "core/feasibility.h"
#include "tests/paper_example.h"

namespace gepc {
namespace {

using testing_support::kE1;
using testing_support::kE2;
using testing_support::kE3;
using testing_support::kE4;
using testing_support::MakePaperInstance;

TEST(TopUpTest, FillsEmptyPlanWithinConstraints) {
  const Instance instance = MakePaperInstance();
  Plan plan(5, 4);
  const TopUpStats stats = TopUpPlan(instance, &plan);
  EXPECT_GT(stats.added, 0);
  ValidationOptions options;
  options.check_lower_bounds = false;
  EXPECT_TRUE(ValidatePlan(instance, plan, options).ok());
}

TEST(TopUpTest, RespectsUpperBounds) {
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(instance.set_event_bounds(kE3, 0, 2).ok());
  Plan plan(5, 4);
  TopUpPlan(instance, &plan);
  EXPECT_LE(plan.attendance(kE3), 2);
}

TEST(TopUpTest, NeverRemovesExistingAssignments) {
  const Instance instance = MakePaperInstance();
  Plan plan(5, 4);
  plan.Add(4, kE4);
  TopUpPlan(instance, &plan);
  EXPECT_TRUE(plan.Contains(4, kE4));
}

TEST(TopUpTest, HighestUtilityPairsWinScarceCapacity) {
  // Only one seat on e3; u1 and u3 both value it at 0.9 (tie broken by
  // user id), so user 0 gets it.
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(instance.set_event_bounds(kE3, 0, 1).ok());
  Plan plan(5, 4);
  TopUpPlan(instance, &plan);
  EXPECT_EQ(plan.attendance(kE3), 1);
  EXPECT_TRUE(plan.Contains(0, kE3));
}

TEST(TopUpTest, SkipsZeroUtilityPairs) {
  Instance instance = MakePaperInstance();
  for (int j = 0; j < 4; ++j) instance.set_utility(4, j, 0.0);
  Plan plan(5, 4);
  TopUpPlan(instance, &plan);
  EXPECT_TRUE(plan.events_of(4).empty());
}

TEST(TopUpUsersTest, OnlyTouchesListedUsers) {
  const Instance instance = MakePaperInstance();
  Plan plan(5, 4);
  TopUpUsers(instance, {2}, &plan);
  for (int i = 0; i < 5; ++i) {
    if (i != 2) {
      EXPECT_TRUE(plan.events_of(i).empty()) << "user " << i;
    }
  }
  EXPECT_FALSE(plan.events_of(2).empty());
}

TEST(TopUpUsersTest, PaperExample6Tail) {
  // After e4 is removed from u4's plan, the re-offer step must hand u4
  // event e2 (Example 6).
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(instance.set_event_bounds(kE4, 1, 1).ok());
  Plan plan = testing_support::MakePaperPlan();
  plan.Remove(3, kE4);
  const TopUpStats stats = TopUpUsers(instance, {3}, &plan);
  EXPECT_EQ(stats.added, 1);
  EXPECT_TRUE(plan.Contains(3, kE2));
}

TEST(TopUpTest, IdempotentOnSaturatedPlan) {
  const Instance instance = MakePaperInstance();
  Plan plan(5, 4);
  TopUpPlan(instance, &plan);
  const Plan saturated = plan;
  const TopUpStats again = TopUpPlan(instance, &plan);
  EXPECT_EQ(again.added, 0);
  EXPECT_TRUE(plan == saturated);
}

}  // namespace
}  // namespace gepc
