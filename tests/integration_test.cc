// End-to-end pipeline: generate a synthetic city, plan it with both GEPC
// algorithms, then drive a day of incremental changes through the planner —
// the full production flow of the library.

#include <gtest/gtest.h>

#include "core/feasibility.h"
#include "data/cities.h"
#include "gepc/solver.h"
#include "iep/planner.h"

namespace gepc {
namespace {

TEST(IntegrationTest, BeijingScaleCityBothAlgorithms) {
  auto city = FindCity("Beijing");
  ASSERT_TRUE(city.ok());
  auto instance = GenerateCity(*city, /*seed=*/2024, /*scale=*/1.0);
  ASSERT_TRUE(instance.ok()) << instance.status();

  double gap_utility = 0.0;
  for (GepcAlgorithm algorithm :
       {GepcAlgorithm::kGreedy, GepcAlgorithm::kGapBased}) {
    GepcOptions options;
    options.algorithm = algorithm;
    auto result = SolveGepc(*instance, options);
    ASSERT_TRUE(result.ok()) << result.status();
    ValidationOptions validation;
    validation.check_lower_bounds = false;
    EXPECT_TRUE(ValidatePlan(*instance, result->plan, validation).ok());
    EXPECT_GT(result->total_utility, 0.0);
    if (algorithm == GepcAlgorithm::kGapBased) {
      gap_utility = result->total_utility;
    }
  }
  EXPECT_GT(gap_utility, 0.0);
}

TEST(IntegrationTest, FullDayOfIncrementalChanges) {
  auto city = FindCity("Beijing");
  ASSERT_TRUE(city.ok());
  auto instance = GenerateCity(*city, 7, 0.5);
  ASSERT_TRUE(instance.ok());

  GepcOptions options;
  options.algorithm = GepcAlgorithm::kGreedy;
  auto initial = SolveGepc(*instance, options);
  ASSERT_TRUE(initial.ok());

  auto planner = IncrementalPlanner::Create(*instance, initial->plan);
  ASSERT_TRUE(planner.ok());

  // A realistic mixed sequence: venue shrink, demand bump, reschedule,
  // a user losing interest, a budget cut, a new event announcement.
  const int m = planner->instance().num_events();
  std::vector<AtomicOp> day = {
      AtomicOp::UpperBoundChange(0 % m,
                                 planner->instance().event(0 % m).upper_bound / 2),
      AtomicOp::LowerBoundChange(1 % m,
                                 planner->instance().event(1 % m).lower_bound + 1),
      AtomicOp::TimeChange(2 % m,
                           {planner->instance().event(2 % m).time.start + 60,
                            planner->instance().event(2 % m).time.end + 60}),
      AtomicOp::UtilityChange(0, 3 % m, 0.0),
      AtomicOp::BudgetChange(1, planner->instance().user(1).budget * 0.5),
  };
  Event fresh;
  fresh.location = {50, 50};
  fresh.lower_bound = 1;
  fresh.upper_bound = 10;
  fresh.time = {5, 25};
  std::vector<double> utilities(
      static_cast<size_t>(planner->instance().num_users()), 0.4);
  day.push_back(AtomicOp::NewEvent(fresh, std::move(utilities)));

  int64_t total_dif = 0;
  for (size_t step = 0; step < day.size(); ++step) {
    auto result = planner->Apply(day[step]);
    ASSERT_TRUE(result.ok()) << "step " << step << ": " << result.status();
    total_dif += result->negative_impact;
    ValidationOptions validation;
    validation.check_lower_bounds = false;
    ASSERT_TRUE(
        ValidatePlan(planner->instance(), planner->plan(), validation).ok())
        << "step " << step;
  }
  // The day's churn should be bounded: a handful of atomic ops cannot nuke
  // the whole plan.
  EXPECT_LT(total_dif, planner->plan().TotalAssignments());
}

TEST(IntegrationTest, IncrementalDisturbsFewPlansOnEtaDecrease) {
  auto city = FindCity("Auckland");
  ASSERT_TRUE(city.ok());
  auto instance = GenerateCity(*city, 11, 0.3);
  ASSERT_TRUE(instance.ok());

  GepcOptions options;
  options.algorithm = GepcAlgorithm::kGreedy;
  auto initial = SolveGepc(*instance, options);
  ASSERT_TRUE(initial.ok());
  auto planner = IncrementalPlanner::Create(*instance, initial->plan);
  ASSERT_TRUE(planner.ok());

  // Halve the capacity of the most-attended event; at most that many
  // attendances can be disturbed, everyone else's plan must be byte-equal.
  EventId target = 0;
  for (int j = 1; j < planner->instance().num_events(); ++j) {
    if (planner->plan().attendance(j) > planner->plan().attendance(target)) {
      target = j;
    }
  }
  const Plan before = planner->plan();
  const int attendance = before.attendance(target);
  const int new_eta = std::max(0, attendance / 2);
  auto result =
      planner->Apply(AtomicOp::UpperBoundChange(target, new_eta));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->negative_impact, attendance - new_eta);
  int untouched = 0;
  for (int i = 0; i < before.num_users(); ++i) {
    std::vector<EventId> a = before.events_of(i);
    std::vector<EventId> b = planner->plan().events_of(i);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a == b) ++untouched;
  }
  EXPECT_GE(untouched,
            before.num_users() - (attendance - new_eta));
}

}  // namespace
}  // namespace gepc
