#include "iep/xi_increase.h"

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

TEST(XiIncreaseTest, NoOpWhenAlreadySatisfied) {
  // Example 7 part 1: xi_4 1 -> 2 with two attendees already.
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(instance.set_event_bounds(kE4, 2, 5).ok());
  const Plan before = MakePaperPlan();
  Plan plan = before;
  IepResult result;
  ApplyXiIncrease(instance, kE4, &plan, &result);
  EXPECT_EQ(result.negative_impact, 0);
  EXPECT_TRUE(plan == before);
}

TEST(XiIncreaseTest, PaperExample7) {
  // xi_4 1 -> 3: the best transfer is u2 from e2 (Delta = -0.1); dif 1.
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(instance.set_event_bounds(kE4, 3, 5).ok());
  Plan plan = MakePaperPlan();
  IepResult result;
  ApplyXiIncrease(instance, kE4, &plan, &result);
  EXPECT_EQ(result.negative_impact, 1);
  EXPECT_FALSE(plan.Contains(1, kE2));
  EXPECT_TRUE(plan.Contains(1, kE4));
  EXPECT_EQ(plan.attendance(kE4), 3);
  EXPECT_EQ(plan.CountEventsBelowLowerBound(instance), 0);
  EXPECT_TRUE(ValidatePlan(instance, plan).ok());
}

TEST(XiIncreaseTest, DonorEventsKeepTheirLowerBounds) {
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(instance.set_event_bounds(kE4, 3, 5).ok());
  Plan plan = MakePaperPlan();
  IepResult result;
  ApplyXiIncrease(instance, kE4, &plan, &result);
  for (int j = 0; j < instance.num_events(); ++j) {
    EXPECT_GE(plan.attendance(j), instance.event(j).lower_bound)
        << "event " << j;
  }
}

TEST(XiIncreaseTest, ReportsShortfallWhenNoDonorExists) {
  // Shrink every other event to xi == attendance so nothing can be spared,
  // and block direct additions by zeroing u-side feasibility: set all
  // non-attendee utilities for e4 to 0.
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(instance.set_event_bounds(kE2, 3, 4).ok());  // e2: 3 = n_2
  ASSERT_TRUE(instance.set_event_bounds(kE4, 4, 5).ok());  // want 4
  instance.set_utility(0, kE4, 0.0);
  instance.set_utility(1, kE4, 0.0);
  instance.set_utility(2, kE4, 0.0);
  Plan plan = MakePaperPlan();
  IepResult result;
  ApplyXiIncrease(instance, kE4, &plan, &result);
  EXPECT_EQ(plan.CountEventsBelowLowerBound(instance), 1);
  EXPECT_LT(plan.attendance(kE4), 4);
}

TEST(XiIncreaseTest, RespectsTargetUpperBound) {
  Instance instance = MakePaperInstance();
  // eta_4 = 2 caps transfers even though xi_4 wants 3.
  ASSERT_TRUE(instance.set_event_bounds(kE4, 2, 2).ok());
  Plan plan = MakePaperPlan();  // e4 already has 2 attendees
  IepResult result;
  ApplyXiIncrease(instance, kE4, &plan, &result);
  EXPECT_LE(plan.attendance(kE4), 2);
}

TEST(XiIncreaseTest, TransferredUserGetsReoffers) {
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(instance.set_event_bounds(kE4, 3, 5).ok());
  Plan plan = MakePaperPlan();
  IepResult result;
  ApplyXiIncrease(instance, kE4, &plan, &result);
  // u2 swapped e2 -> e4; the re-offer step may add more events for u2 but
  // must never break feasibility.
  ValidationOptions options;
  options.check_lower_bounds = false;
  EXPECT_TRUE(ValidatePlan(instance, plan, options).ok());
}

TEST(XiIncreaseTest, PrefersSmallestUtilityLossAmongDonors) {
  // Both e2 attendees u1 (0.6) and u3 (0.7) could move to e4, but u3's
  // Delta (0.5 - 0.7 = -0.2) loses more than u1's... actually u1's
  // Delta = 0.3 - 0.6 = -0.3, u2's = 0.4 - 0.5 = -0.1 -> u2 moves first.
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(instance.set_event_bounds(kE4, 3, 5).ok());
  Plan plan = MakePaperPlan();
  IepResult result;
  ApplyXiIncrease(instance, kE4, &plan, &result);
  EXPECT_TRUE(plan.Contains(1, kE4));   // u2 (best Delta) moved
  EXPECT_TRUE(plan.Contains(0, kE2));   // u1 untouched
  EXPECT_TRUE(plan.Contains(2, kE2));   // u3 untouched
}

}  // namespace
}  // namespace gepc
