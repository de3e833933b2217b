#include "iep/eta_decrease.h"

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

TEST(EtaDecreaseTest, NoOpWhenAttendanceFits) {
  // Example 6 part 1: eta_4 5 -> 4 changes nothing (only 2 attendees).
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(instance.set_event_bounds(kE4, 1, 4).ok());
  const Plan before = MakePaperPlan();
  Plan plan = before;
  IepResult result;
  ApplyEtaDecrease(instance, kE4, &plan, &result);
  EXPECT_EQ(result.negative_impact, 0);
  EXPECT_TRUE(plan == before);
}

TEST(EtaDecreaseTest, PaperExample6) {
  // eta_4 5 -> 1: u4 (mu 0.6 < u5's 0.7) loses e4 and picks up e2; dif 1.
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(instance.set_event_bounds(kE4, 1, 1).ok());
  const Plan before = MakePaperPlan();
  Plan plan = before;
  IepResult result;
  ApplyEtaDecrease(instance, kE4, &plan, &result);
  EXPECT_EQ(result.negative_impact, 1);
  EXPECT_EQ(NegativeImpact(before, plan), 1);
  EXPECT_FALSE(plan.Contains(3, kE4));
  EXPECT_TRUE(plan.Contains(4, kE4));  // higher-utility user kept
  EXPECT_TRUE(plan.Contains(3, kE2));  // re-offer found e2
  EXPECT_EQ(result.added_by_topup, 1);
  EXPECT_TRUE(ValidatePlan(instance, plan).ok());
}

TEST(EtaDecreaseTest, RemovesLowestUtilityAttendeesFirst) {
  // e3 has u2 (0.8), u3 (0.9), u4 (0.8) in the paper plan... make the
  // ordering unambiguous, then cap eta at 1.
  Instance instance = MakePaperInstance();
  instance.set_utility(1, kE3, 0.5);   // u2 now clearly lowest
  instance.set_utility(3, kE3, 0.75);  // u4 middle
  ASSERT_TRUE(instance.set_event_bounds(kE3, 0, 1).ok());
  Plan plan = MakePaperPlan();
  IepResult result;
  ApplyEtaDecrease(instance, kE3, &plan, &result);
  EXPECT_EQ(result.negative_impact, 2);
  EXPECT_TRUE(plan.Contains(2, kE3));   // u3 (0.9) stays
  EXPECT_FALSE(plan.Contains(1, kE3));
  EXPECT_FALSE(plan.Contains(3, kE3));
}

TEST(EtaDecreaseTest, DifEqualsAttendanceMinusNewEta) {
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(instance.set_event_bounds(kE2, 0, 1).ok());
  Plan plan = MakePaperPlan();  // e2 has 3 attendees
  IepResult result;
  ApplyEtaDecrease(instance, kE2, &plan, &result);
  EXPECT_EQ(result.negative_impact, 2);
}

TEST(EtaDecreaseTest, ResultSatisfiesUserConstraints) {
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(instance.set_event_bounds(kE3, 0, 1).ok());
  Plan plan = MakePaperPlan();
  IepResult result;
  ApplyEtaDecrease(instance, kE3, &plan, &result);
  ValidationOptions options;
  options.check_lower_bounds = false;
  EXPECT_TRUE(ValidatePlan(instance, plan, options).ok());
}

TEST(EtaDecreaseTest, EtaZeroEvictsEveryone) {
  Instance instance = MakePaperInstance();
  ASSERT_TRUE(instance.set_event_bounds(kE2, 0, 0).ok());
  Plan plan = MakePaperPlan();
  IepResult result;
  ApplyEtaDecrease(instance, kE2, &plan, &result);
  EXPECT_EQ(plan.attendance(kE2), 0);
  EXPECT_EQ(result.negative_impact, 3);
}

}  // namespace
}  // namespace gepc
