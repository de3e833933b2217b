#include "spatial/reachability.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/feasibility.h"
#include "core/plan.h"
#include "data/generator.h"
#include "gepc/topup.h"
#include "gepc/user_menus.h"
#include "geom/point.h"
#include "tests/paper_example.h"

namespace gepc {
namespace {

using testing_support::MakePaperInstance;

Instance MakeGenerated(int users, int events, uint64_t seed,
                       double budget_lo = 0.1, double budget_hi = 0.4) {
  GeneratorConfig config;
  config.num_users = users;
  config.num_events = events;
  config.seed = seed;
  config.budget_min_fraction = budget_lo;
  config.budget_max_fraction = budget_hi;
  auto instance = GenerateInstance(config);
  EXPECT_TRUE(instance.ok()) << instance.status();
  return *std::move(instance);
}

std::vector<EventId> BruteAttendable(const Instance& instance, UserId i) {
  std::vector<EventId> events;
  const User& user = instance.user(i);
  for (EventId j = 0; j < instance.num_events(); ++j) {
    const Event& event = instance.event(j);
    const double round_trip =
        2.0 * Distance(user.location, event.location) + event.fee;
    if (round_trip <= user.budget + kBudgetEpsilon) {
      events.push_back(j);
    }
  }
  return events;
}

TEST(ReachabilityFilterTest, MatchesBruteForceOnGeneratedInstances) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    const Instance instance = MakeGenerated(60, 25, seed);
    const ReachabilityFilter filter(instance);
    for (UserId i = 0; i < instance.num_users(); ++i) {
      EXPECT_EQ(filter.AttendableEvents(i), BruteAttendable(instance, i))
          << "seed " << seed << " user " << i;
    }
  }
}

TEST(ReachabilityFilterTest, MatchesBruteForceWithFees) {
  GeneratorConfig config;
  config.num_users = 50;
  config.num_events = 20;
  config.seed = 77;
  config.mean_fee = 5.0;
  config.budget_min_fraction = 0.1;
  config.budget_max_fraction = 0.5;
  auto instance = GenerateInstance(config);
  ASSERT_TRUE(instance.ok());
  const ReachabilityFilter filter(*instance);
  for (UserId i = 0; i < instance->num_users(); ++i) {
    EXPECT_EQ(filter.AttendableEvents(i), BruteAttendable(*instance, i));
    for (EventId j : filter.AttendableEvents(i)) {
      EXPECT_TRUE(filter.CanReach(i, j));
    }
  }
}

TEST(ReachabilityFilterTest, CoversEverySoloAttendableEvent) {
  // Soundness against the real feasibility check: anything CanAttend
  // admits on an empty plan must be inside the filter's candidate set.
  const Instance instance = MakeGenerated(40, 20, 9);
  const ReachabilityFilter filter(instance);
  const Plan empty(instance.num_users(), instance.num_events());
  for (UserId i = 0; i < instance.num_users(); ++i) {
    const std::vector<EventId> candidates = filter.AttendableEvents(i);
    for (EventId j = 0; j < instance.num_events(); ++j) {
      if (!CanAttend(instance, empty, i, j)) continue;
      EXPECT_TRUE(std::find(candidates.begin(), candidates.end(), j) !=
                  candidates.end())
          << "user " << i << " event " << j;
    }
  }
}

TEST(ReachabilityFilterTest, UserMenuIdenticalWithAndWithoutFilter) {
  for (const Instance& instance :
       {MakePaperInstance(), MakeGenerated(30, 12, 5)}) {
    const ReachabilityFilter filter(instance);
    for (UserId i = 0; i < instance.num_users(); ++i) {
      for (bool by_utility : {false, true}) {
        auto plain = BuildUserMenu(instance, i, by_utility);
        auto filtered = BuildUserMenu(instance, i, by_utility, &filter);
        ASSERT_TRUE(plain.ok());
        ASSERT_TRUE(filtered.ok());
        EXPECT_EQ(plain->subsets, filtered->subsets) << "user " << i;
        EXPECT_EQ(plain->utilities, filtered->utilities) << "user " << i;
        EXPECT_EQ(plain->attendable, filtered->attendable) << "user " << i;
        EXPECT_DOUBLE_EQ(plain->best_utility, filtered->best_utility);
      }
    }
  }
}

TEST(ReachabilityFilterTest, TopUpIdenticalWithAndWithoutFilter) {
  const Instance instance = MakeGenerated(50, 20, 13);
  Plan plain(instance.num_users(), instance.num_events());
  Plan filtered = plain;
  const ReachabilityFilter filter(instance);
  const TopUpStats plain_stats = TopUpPlan(instance, &plain);
  const TopUpStats filtered_stats = TopUpPlan(instance, &filtered, &filter);
  EXPECT_EQ(plain_stats.added, filtered_stats.added);
  EXPECT_TRUE(plain == filtered);
}

TEST(ReachabilityFilterTest, ZeroBudgetUserReachesOnlyCoLocatedFreeEvents) {
  std::vector<User> users;
  users.push_back(User{Point{5.0, 5.0}, /*budget=*/0.0});
  std::vector<Event> events;
  Event at_home;
  at_home.location = Point{5.0, 5.0};
  at_home.time = Interval{0, 10};
  at_home.lower_bound = 0;
  at_home.upper_bound = 1;
  Event away = at_home;
  away.location = Point{6.0, 5.0};
  away.time = Interval{20, 30};
  events.push_back(at_home);
  events.push_back(away);
  Instance instance(std::move(users), std::move(events));
  const ReachabilityFilter filter(instance);
  EXPECT_EQ(filter.AttendableEvents(0), std::vector<EventId>{0});
}

}  // namespace
}  // namespace gepc
