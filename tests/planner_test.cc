#include "iep/planner.h"

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

IncrementalPlanner MakePlanner() {
  auto planner =
      IncrementalPlanner::Create(MakePaperInstance(), MakePaperPlan());
  EXPECT_TRUE(planner.ok());
  return *std::move(planner);
}

TEST(PlannerTest, CreateRejectsMismatchedPlan) {
  auto planner = IncrementalPlanner::Create(MakePaperInstance(), Plan(2, 2));
  ASSERT_FALSE(planner.ok());
  EXPECT_EQ(planner.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlannerTest, EtaDecreaseRouted) {
  IncrementalPlanner planner = MakePlanner();
  auto result = planner.Apply(AtomicOp::UpperBoundChange(kE4, 1));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->negative_impact, 1);
  EXPECT_EQ(planner.instance().event(kE4).upper_bound, 1);
}

TEST(PlannerTest, EtaIncreaseOnlyAdds) {
  IncrementalPlanner planner = MakePlanner();
  const Plan before = planner.plan();
  auto result = planner.Apply(AtomicOp::UpperBoundChange(kE2, 5));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->negative_impact, 0);
  EXPECT_EQ(NegativeImpact(before, planner.plan()), 0);
}

TEST(PlannerTest, XiIncreaseRouted) {
  IncrementalPlanner planner = MakePlanner();
  auto result = planner.Apply(AtomicOp::LowerBoundChange(kE4, 3));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->negative_impact, 1);
  EXPECT_EQ(planner.plan().attendance(kE4), 3);
}

TEST(PlannerTest, XiDecreaseIsFree) {
  IncrementalPlanner planner = MakePlanner();
  const Plan before = planner.plan();
  auto result = planner.Apply(AtomicOp::LowerBoundChange(kE3, 1));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->negative_impact, 0);
  EXPECT_TRUE(planner.plan() == before);
}

TEST(PlannerTest, TimeChangeRouted) {
  IncrementalPlanner planner = MakePlanner();
  auto result = planner.Apply(
      AtomicOp::TimeChange(kE1, {15 * 60 + 30, 17 * 60 + 30}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->negative_impact, 1);
  EXPECT_TRUE(planner.plan().Contains(3, kE1));  // Example 8's refill
}

TEST(PlannerTest, TimeChangeRejectsBadInterval) {
  IncrementalPlanner planner = MakePlanner();
  auto result = planner.Apply(AtomicOp::TimeChange(kE1, {100, 100}));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlannerTest, LocationChangeRepairsBudgets) {
  IncrementalPlanner planner = MakePlanner();
  // Move e4 far away: u5 (budget 10) can no longer reach it.
  auto result = planner.Apply(AtomicOp::LocationChange(kE4, {500, 500}));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(planner.plan().Contains(4, kE4));
  ValidationOptions options;
  options.check_lower_bounds = false;
  EXPECT_TRUE(ValidatePlan(planner.instance(), planner.plan(), options).ok());
}

TEST(PlannerTest, NewEventGetsPopulated) {
  IncrementalPlanner planner = MakePlanner();
  Event fresh;
  fresh.location = {4, 4};
  fresh.lower_bound = 1;
  fresh.upper_bound = 3;
  fresh.time = {21 * 60, 22 * 60};  // after everything
  auto result = planner.Apply(
      AtomicOp::NewEvent(fresh, {0.5, 0.5, 0.5, 0.5, 0.5}));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(planner.instance().num_events(), 5);
  EXPECT_GE(planner.plan().attendance(4), 1);
  EXPECT_EQ(result->negative_impact, 0);  // pure additions suffice
}

TEST(PlannerTest, NewEventNeedsUtilityPerUser) {
  IncrementalPlanner planner = MakePlanner();
  Event fresh;
  fresh.location = {4, 4};
  fresh.lower_bound = 0;
  fresh.upper_bound = 3;
  fresh.time = {21 * 60, 22 * 60};
  // Too few utilities, or one negative: Instance::Validate would refuse the
  // grown state, so a later recovery could not boot it.
  for (const std::vector<double>& utilities :
       {std::vector<double>{0.5},
        std::vector<double>{-3.0, 0.4, 0.4, 0.4, 0.4}}) {
    auto result = planner.Apply(AtomicOp::NewEvent(fresh, utilities));
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(planner.instance().num_events(), 4);
  }
}

TEST(PlannerTest, UtilityZeroedDropsAttendance) {
  IncrementalPlanner planner = MakePlanner();
  auto result = planner.Apply(AtomicOp::UtilityChange(4, kE4, 0.0));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(planner.plan().Contains(4, kE4));
  EXPECT_GE(result->negative_impact, 1);
  // e4's xi = 1 still holds via u4.
  EXPECT_GE(planner.plan().attendance(kE4), 1);
}

TEST(PlannerTest, UtilityIncreaseMayAddEvent) {
  IncrementalPlanner planner = MakePlanner();
  // u5 currently only attends e4; raise u5's utility for e3 — but u5's
  // budget (10) cannot cover e3 (2 * sqrt(17)) plus e4... check tour: the
  // planner should add it only if feasible.
  auto result = planner.Apply(AtomicOp::UtilityChange(4, kE3, 0.95));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->negative_impact, 0);
  ValidationOptions options;
  options.check_lower_bounds = false;
  EXPECT_TRUE(ValidatePlan(planner.instance(), planner.plan(), options).ok());
}

TEST(PlannerTest, BudgetDecreaseShedsCheapestEvents) {
  IncrementalPlanner planner = MakePlanner();
  // u1's plan {e1, e2} costs 16.53; cut the budget to 9: only a single
  // round trip fits. e1 (0.7) > e2 (0.6), and dropping e2 alone leaves a
  // tour of 2 sqrt(17) = 8.25 <= 9.
  auto result = planner.Apply(AtomicOp::BudgetChange(0, 9.0));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(planner.plan().Contains(0, kE1));
  EXPECT_FALSE(planner.plan().Contains(0, kE2));
  EXPECT_GE(result->negative_impact, 1);
  ValidationOptions options;
  options.check_lower_bounds = false;
  EXPECT_TRUE(ValidatePlan(planner.instance(), planner.plan(), options).ok());
}

TEST(PlannerTest, BudgetIncreaseOnlyAdds) {
  IncrementalPlanner planner = MakePlanner();
  const Plan before = planner.plan();
  auto result = planner.Apply(AtomicOp::BudgetChange(4, 100.0));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->negative_impact, 0);
  EXPECT_EQ(NegativeImpact(before, planner.plan()), 0);
  // With budget 100, u5 can now also attend e3 (utility 0.6 > 0).
  EXPECT_TRUE(planner.plan().Contains(4, kE3));
}

TEST(PlannerTest, BudgetChangeRejectsNegative) {
  IncrementalPlanner planner = MakePlanner();
  EXPECT_EQ(planner.Apply(AtomicOp::BudgetChange(0, -5.0)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(PlannerTest, OutOfRangeIdsRejected) {
  IncrementalPlanner planner = MakePlanner();
  EXPECT_EQ(
      planner.Apply(AtomicOp::UpperBoundChange(99, 1)).status().code(),
      StatusCode::kOutOfRange);
  EXPECT_EQ(
      planner.Apply(AtomicOp::UtilityChange(99, kE1, 0.5)).status().code(),
      StatusCode::kOutOfRange);
}

TEST(PlannerTest, StateAdvancesAcrossOperations) {
  IncrementalPlanner planner = MakePlanner();
  ASSERT_TRUE(planner.Apply(AtomicOp::UpperBoundChange(kE4, 1)).ok());
  // Second op sees the updated plan: u4 now attends e2 (Example 6).
  EXPECT_TRUE(planner.plan().Contains(3, kE2));
  auto result = planner.Apply(AtomicOp::LowerBoundChange(kE1, 2));
  ASSERT_TRUE(result.ok());
}

TEST(PlannerTest, ReSolveDoesNotAdvanceState) {
  IncrementalPlanner planner = MakePlanner();
  const Plan before = planner.plan();
  GepcOptions options;
  options.algorithm = GepcAlgorithm::kGreedy;
  auto resolved = planner.ReSolve(AtomicOp::UpperBoundChange(kE4, 1), options);
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  EXPECT_TRUE(planner.plan() == before);
  EXPECT_EQ(planner.instance().event(kE4).upper_bound, 5);
  EXPECT_GT(resolved->total_utility, 0.0);
}

TEST(PlannerTest, ReSolveWithGapBaseline) {
  IncrementalPlanner planner = MakePlanner();
  GepcOptions options;
  options.algorithm = GepcAlgorithm::kGapBased;
  auto resolved = planner.ReSolve(AtomicOp::LowerBoundChange(kE4, 2), options);
  ASSERT_TRUE(resolved.ok()) << resolved.status();
  ValidationOptions validation;
  validation.check_lower_bounds = false;
  Instance mutated = planner.instance();
  ASSERT_TRUE(mutated.set_event_bounds(kE4, 2, 5).ok());
  EXPECT_TRUE(ValidatePlan(mutated, resolved->plan, validation).ok());
}

}  // namespace
}  // namespace gepc
