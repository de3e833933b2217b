// Tests of the admission-fee cost model (the Sec. VII "costs of attendance
// rolled into travel costs" extension). Zero fees must reproduce the paper's
// pure-travel behaviour exactly; positive fees tighten every budget check.

#include <gtest/gtest.h>

#include <sstream>

#include "core/feasibility.h"
#include "data/generator.h"
#include "data/io.h"
#include "gepc/exact.h"
#include "gepc/solver.h"
#include "tests/paper_example.h"

namespace gepc {
namespace {

using testing_support::kE1;
using testing_support::kE2;
using testing_support::MakePaperInstance;

TEST(FeesTest, TourCostAddsFees) {
  Instance instance = MakePaperInstance();
  const double travel_only = TourCost(instance, 0, {kE1, kE2});
  // Mutate via a rebuilt instance (Event fee is a plain field).
  std::vector<User> users(instance.users());
  std::vector<Event> events(instance.events());
  events[kE1].fee = 3.5;
  events[kE2].fee = 1.5;
  Instance with_fees(std::move(users), std::move(events));
  EXPECT_NEAR(TourCost(with_fees, 0, {kE1, kE2}), travel_only + 5.0, 1e-9);
}

TEST(FeesTest, ZeroFeeIsPaperModel) {
  const Instance instance = MakePaperInstance();
  EXPECT_NEAR(TourCost(instance, 0, {kE1, kE2}),
              std::sqrt(17.0) + std::sqrt(41.0) + 6.0, 1e-12);
}

TEST(FeesTest, CanAttendChargesFee) {
  std::vector<User> users = {{{0, 0}, 10.0}};
  std::vector<Event> events = {{{3, 0}, 0, 1, {0, 10}, /*fee=*/0.0}};
  Instance instance(std::move(users), std::move(events));
  instance.set_utility(0, 0, 0.9);
  Plan plan(1, 1);
  EXPECT_TRUE(CanAttend(instance, plan, 0, 0));  // tour 6 <= 10

  std::vector<User> users2 = {{{0, 0}, 10.0}};
  std::vector<Event> events2 = {{{3, 0}, 0, 1, {0, 10}, /*fee=*/5.0}};
  Instance pricey(std::move(users2), std::move(events2));
  pricey.set_utility(0, 0, 0.9);
  EXPECT_FALSE(CanAttend(pricey, plan, 0, 0));  // 6 + 5 > 10
}

TEST(FeesTest, NegativeFeeInvalid) {
  Event e{{0, 0}, 0, 1, {0, 10}, -1.0};
  EXPECT_FALSE(e.IsValid());
  Instance instance({{{0, 0}, 1.0}}, {e});
  EXPECT_EQ(instance.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(FeesTest, ExactSolverRespectsFees) {
  // Budget 25 covers one of the two fee-bearing events, not both.
  std::vector<User> users = {{{0, 0}, 25.0}};
  std::vector<Event> events = {{{5, 0}, 0, 1, {0, 10}, 6.0},
                               {{-5, 0}, 0, 1, {20, 30}, 6.0}};
  Instance instance(std::move(users), std::move(events));
  instance.set_utility(0, 0, 0.5);
  instance.set_utility(0, 1, 0.9);
  // Both: 10 + 10 + 10 travel... actually 5 + 10 + 5 = 20 travel + 12 fees
  // = 32 > 25. One alone: 10 travel + 6 fee = 16 <= 25.
  auto result = SolveGepcExact(instance);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->total_utility, 0.9, 1e-12);
}

TEST(FeesTest, SolversStayWithinFeeInclusiveBudget) {
  GeneratorConfig config;
  config.num_users = 40;
  config.num_events = 10;
  config.mean_eta = 6.0;
  config.mean_xi = 2.0;
  config.mean_fee = 15.0;
  config.seed = 99;
  auto instance = GenerateInstance(config);
  ASSERT_TRUE(instance.ok());
  bool any_fee = false;
  for (int j = 0; j < instance->num_events(); ++j) {
    if (instance->event(j).fee > 0.0) any_fee = true;
  }
  EXPECT_TRUE(any_fee);
  for (GepcAlgorithm algorithm :
       {GepcAlgorithm::kGreedy, GepcAlgorithm::kGapBased}) {
    GepcOptions options;
    options.algorithm = algorithm;
    auto result = SolveGepc(*instance, options);
    ASSERT_TRUE(result.ok()) << result.status();
    for (int i = 0; i < instance->num_users(); ++i) {
      EXPECT_LE(UserTravelCost(*instance, result->plan, i),
                instance->user(i).budget + 1e-9)
          << GepcAlgorithmName(algorithm) << " user " << i;
    }
  }
}

TEST(FeesTest, FeesReduceAchievableUtility) {
  GeneratorConfig config;
  config.num_users = 40;
  config.num_events = 10;
  config.mean_eta = 6.0;
  config.mean_xi = 1.0;
  config.seed = 7;
  auto free_instance = GenerateInstance(config);
  config.mean_fee = 40.0;  // steep fees relative to ~141-diagonal budgets
  auto priced_instance = GenerateInstance(config);
  ASSERT_TRUE(free_instance.ok() && priced_instance.ok());
  auto free_result = SolveGepc(*free_instance, GepcOptions{});
  auto priced_result = SolveGepc(*priced_instance, GepcOptions{});
  ASSERT_TRUE(free_result.ok() && priced_result.ok());
  EXPECT_LT(priced_result->total_utility, free_result->total_utility);
}

TEST(FeesTest, IoRoundTripsFee) {
  std::vector<User> users = {{{0, 0}, 10.0}};
  std::vector<Event> events = {{{1, 1}, 0, 2, {0, 10}, 2.25}};
  Instance instance(std::move(users), std::move(events));
  std::stringstream buffer;
  ASSERT_TRUE(SaveInstance(instance, buffer).ok());
  auto loaded = LoadInstance(buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ(loaded->event(0).fee, 2.25);
}

TEST(FeesTest, IoAcceptsLegacyRowsWithoutFee) {
  std::stringstream in(
      "GEPC1 1 1\n"
      "u 0 0 10\n"
      "e 1 1 0 2 0 10\n");  // six event fields, no fee
  auto loaded = LoadInstance(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_DOUBLE_EQ(loaded->event(0).fee, 0.0);
}

}  // namespace
}  // namespace gepc
