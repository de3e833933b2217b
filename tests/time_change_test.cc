#include "iep/time_change.h"

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
using testing_support::MakePaperPlan;

TEST(TimeChangeTest, NoOpWhenNewTimeCausesNoConflicts) {
  Instance instance = MakePaperInstance();
  // Shift e4 one hour later: still after everything.
  ASSERT_TRUE(instance.set_event_time(kE4, {19 * 60, 21 * 60}).ok());
  const Plan before = MakePaperPlan();
  Plan plan = before;
  IepResult result;
  ApplyTimeChange(instance, kE4, &plan, &result);
  EXPECT_EQ(result.negative_impact, 0);
  for (UserId i : before.attendees_of(kE4)) {
    EXPECT_TRUE(plan.Contains(i, kE4));
  }
}

TEST(TimeChangeTest, PaperExample8) {
  // e1 moved to 3:30-5:30 p.m.: now conflicts with e2, so u1 drops e1;
  // the refill scan finds u4 (u2/u3 conflict via e2, u5 lacks budget).
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(
      instance.set_event_time(kE1, {15 * 60 + 30, 17 * 60 + 30}).ok());
  Plan plan = MakePaperPlan();
  IepResult result;
  ApplyTimeChange(instance, kE1, &plan, &result);
  EXPECT_FALSE(plan.Contains(0, kE1));
  EXPECT_TRUE(plan.Contains(3, kE1));
  EXPECT_FALSE(plan.Contains(1, kE1));
  EXPECT_FALSE(plan.Contains(2, kE1));
  EXPECT_FALSE(plan.Contains(4, kE1));
  EXPECT_EQ(result.negative_impact, 1);  // only u1's loss counts
  EXPECT_EQ(plan.CountEventsBelowLowerBound(instance), 0);
  ValidationOptions options;
  options.check_lower_bounds = false;
  EXPECT_TRUE(ValidatePlan(instance, plan, options).ok());
}

TEST(TimeChangeTest, KeepsNonConflictedAttendees) {
  Instance instance = MakePaperInstance();
  // e3 moved into e2's slot: u2/u3 (who hold e2) must first drop e3 while
  // u4 keeps it; the xi-refill may then transfer users back into e3 at the
  // cost of their e2 attendance, but never leave anyone holding both.
  ASSERT_TRUE(instance.set_event_time(kE3, {16 * 60, 17 * 60}).ok());
  Plan plan = MakePaperPlan();
  IepResult result;
  ApplyTimeChange(instance, kE3, &plan, &result);
  EXPECT_TRUE(plan.Contains(3, kE3));
  for (UserId i : plan.attendees_of(kE3)) {
    EXPECT_FALSE(plan.Contains(i, kE2)) << "user " << i;
  }
  EXPECT_GE(result.negative_impact, 2);
  ValidationOptions options;
  options.check_lower_bounds = false;
  EXPECT_TRUE(ValidatePlan(instance, plan, options).ok());
}

TEST(TimeChangeTest, RefillRespectsUpperBound) {
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(instance.set_event_bounds(kE1, 1, 1).ok());
  ASSERT_TRUE(
      instance.set_event_time(kE1, {15 * 60 + 30, 17 * 60 + 30}).ok());
  Plan plan = MakePaperPlan();
  IepResult result;
  ApplyTimeChange(instance, kE1, &plan, &result);
  EXPECT_LE(plan.attendance(kE1), 1);
}

TEST(TimeChangeTest, FallsThroughToTransfersWhenAdditionsInsufficient) {
  // Make e1 unattractive to everyone except the e2 attendees, so the only
  // refill path is Algorithm 4 transfers from e2 (which has a spare).
  Instance instance = MakePaperInstance();
  instance.set_utility(3, kE1, 0.0);  // u4 cannot take it directly
  instance.set_utility(4, kE1, 0.0);  // u5 neither
  ASSERT_TRUE(
      instance.set_event_time(kE1, {15 * 60 + 30, 17 * 60 + 30}).ok());
  Plan plan = MakePaperPlan();
  IepResult result;
  ApplyTimeChange(instance, kE1, &plan, &result);
  // u1 dropped e1 (conflict with their e2). Everyone else with positive
  // utility for e1 holds e2 which now conflicts; transfers from e2 (spare:
  // 3 attendees > xi 2) can swap someone out of e2 into e1.
  EXPECT_EQ(plan.attendance(kE1) +
                plan.CountEventsBelowLowerBound(instance),
            1);
  ValidationOptions options;
  options.check_lower_bounds = false;
  EXPECT_TRUE(ValidatePlan(instance, plan, options).ok());
}

TEST(TimeChangeTest, UnrelatedPlansUntouched) {
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(
      instance.set_event_time(kE1, {15 * 60 + 30, 17 * 60 + 30}).ok());
  Plan plan = MakePaperPlan();
  IepResult result;
  ApplyTimeChange(instance, kE1, &plan, &result);
  // u5's plan had no relation to e1.
  EXPECT_TRUE(plan.Contains(4, kE4));
}

}  // namespace
}  // namespace gepc
