// Randomized sweep over instances and atomic operations: every incremental
// repair must keep the plan feasible on constraints 1-3, report a dif that
// matches the actual plan delta, and stay utility-competitive with the
// re-solve-from-scratch baselines (the paper's Tables VII-IX observation).

#include <gtest/gtest.h>

#include <set>

#include "ckpt/checkpoint.h"
#include "common/rng.h"
#include "core/feasibility.h"
#include "data/generator.h"
#include "gepc/solver.h"
#include "iep/planner.h"
#include "service/torture.h"

namespace gepc {
namespace {

AtomicOp RandomOp(const Instance& instance, Rng* rng) {
  const EventId event = static_cast<EventId>(
      rng->UniformUint64(static_cast<uint64_t>(instance.num_events())));
  const UserId user = static_cast<UserId>(
      rng->UniformUint64(static_cast<uint64_t>(instance.num_users())));
  switch (rng->UniformUint64(7)) {
    case 0: {
      const int eta = instance.event(event).upper_bound;
      return AtomicOp::UpperBoundChange(
          event, std::max(0, eta - static_cast<int>(rng->UniformInt(1, 4))));
    }
    case 1: {
      const int xi = instance.event(event).lower_bound;
      return AtomicOp::LowerBoundChange(
          event, std::min(instance.event(event).upper_bound,
                          xi + static_cast<int>(rng->UniformInt(1, 3))));
    }
    case 2: {
      const Interval old = instance.event(event).time;
      const Minutes shift = static_cast<Minutes>(rng->UniformInt(-120, 120));
      return AtomicOp::TimeChange(
          event, {old.start + shift, old.end + shift});
    }
    case 3:
      return AtomicOp::UtilityChange(user, event,
                                     rng->Bernoulli(0.5)
                                         ? 0.0
                                         : rng->UniformDouble(0.0, 1.0));
    case 4:
      return AtomicOp::BudgetChange(
          user, instance.user(user).budget * rng->UniformDouble(0.3, 1.5));
    case 5:
      return AtomicOp::LocationChange(
          event, {rng->UniformDouble(0, 100), rng->UniformDouble(0, 100)});
    default: {
      Event fresh;
      fresh.location = {rng->UniformDouble(0, 100), rng->UniformDouble(0, 100)};
      fresh.lower_bound = static_cast<int>(rng->UniformInt(0, 2));
      fresh.upper_bound =
          fresh.lower_bound + static_cast<int>(rng->UniformInt(1, 5));
      const Minutes start = static_cast<Minutes>(rng->UniformInt(0, 700));
      fresh.time = {start, start + static_cast<Minutes>(rng->UniformInt(30, 120))};
      std::vector<double> utilities;
      for (int i = 0; i < instance.num_users(); ++i) {
        utilities.push_back(rng->Bernoulli(0.5) ? rng->UniformDouble(0, 1)
                                                : 0.0);
      }
      return AtomicOp::NewEvent(fresh, std::move(utilities));
    }
  }
}

class IepRandomSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IepRandomSweep, RepairedPlansStayFeasibleAndAccounted) {
  GeneratorConfig config;
  config.num_users = 60;
  config.num_events = 14;
  config.mean_eta = 9.0;
  config.mean_xi = 2.0;
  config.seed = GetParam() * 131;
  auto instance = GenerateInstance(config);
  ASSERT_TRUE(instance.ok());

  GepcOptions solve_options;
  solve_options.algorithm = GepcAlgorithm::kGreedy;
  solve_options.greedy.seed = GetParam();
  auto initial = SolveGepc(*instance, solve_options);
  ASSERT_TRUE(initial.ok());

  auto planner = IncrementalPlanner::Create(*instance, initial->plan);
  ASSERT_TRUE(planner.ok());

  Rng rng(GetParam() * 977 + 5);
  for (int step = 0; step < 12; ++step) {
    const Plan before = planner->plan();
    const AtomicOp op = RandomOp(planner->instance(), &rng);
    auto result = planner->Apply(op);
    ASSERT_TRUE(result.ok()) << "step " << step << ": " << result.status();

    // Constraints 1-3 hold on the repaired plan.
    ValidationOptions validation;
    validation.check_lower_bounds = false;
    ASSERT_TRUE(
        ValidatePlan(planner->instance(), planner->plan(), validation).ok())
        << "step " << step;

    // Counted removals upper-bound the measured plan delta (a chained
    // repair may remove an attendance it only added mid-repair, so the
    // counter can exceed the net dif, never undershoot it).
    EXPECT_GE(result->negative_impact,
              NegativeImpact(before, planner->plan()))
        << "step " << step;

    // Utility accounting is exact.
    EXPECT_NEAR(result->total_utility,
                planner->plan().TotalUtility(planner->instance()), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IepRandomSweep,
                         ::testing::Range<uint64_t>(1, 13));

class IepVsResolve : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IepVsResolve, IncrementalStaysCompetitiveWithResolve) {
  GeneratorConfig config;
  config.num_users = 50;
  config.num_events = 12;
  config.mean_eta = 8.0;
  config.mean_xi = 2.0;
  config.seed = GetParam() * 311;
  auto instance = GenerateInstance(config);
  ASSERT_TRUE(instance.ok());

  GepcOptions solve_options;
  solve_options.algorithm = GepcAlgorithm::kGreedy;
  auto initial = SolveGepc(*instance, solve_options);
  ASSERT_TRUE(initial.ok());
  auto planner = IncrementalPlanner::Create(*instance, initial->plan);
  ASSERT_TRUE(planner.ok());

  Rng rng(GetParam() * 31 + 7);
  const AtomicOp op = RandomOp(planner->instance(), &rng);
  auto baseline = planner->ReSolve(op, solve_options);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  auto incremental = planner->Apply(op);
  ASSERT_TRUE(incremental.ok()) << incremental.status();

  // Tables VII-IX: incremental utility is "almost the same" as re-running;
  // either side may win, but the incremental result must not collapse.
  EXPECT_GE(incremental->total_utility, 0.5 * baseline->total_utility)
      << "incremental " << incremental->total_utility << " vs re-solve "
      << baseline->total_utility;
}

INSTANTIATE_TEST_SUITE_P(Seeds, IepVsResolve,
                         ::testing::Range<uint64_t>(1, 11));

// Byte-level pin of the incremental planner's behaviour. The replay and
// torture gates compare two runs of one build, so a deterministic change in
// what a repair does passes them; this test compares against literals. A
// refactor of src/iep that is meant to change nothing must keep them.
TEST(IepGoldenTest, TortureStreamReachesPinnedState) {
  GeneratorConfig config;
  config.num_users = 60;
  config.num_events = 12;
  config.mean_eta = 9.0;
  config.mean_xi = 3.0;
  config.seed = 20170419;
  auto instance = GenerateInstance(config);
  ASSERT_TRUE(instance.ok());
  auto solved = SolveGepc(*instance);
  ASSERT_TRUE(solved.ok());

  auto generator = IncrementalPlanner::Create(*instance, solved->plan);
  ASSERT_TRUE(generator.ok());
  const std::vector<AtomicOp> ops =
      GenerateTortureOps(&*generator, 2400, config.seed);

  auto planner = IncrementalPlanner::Create(*instance, solved->plan);
  ASSERT_TRUE(planner.ok());
  std::set<AtomicOp::Kind> kinds;
  int rejected = 0;
  int zeroed_refills = 0;  // zeroed utility -> drop -> Alg. 4 refill
  int64_t negative_impact = 0;
  int64_t added_by_topup = 0;
  int64_t events_below_lower_bound = 0;
  for (const AtomicOp& op : ops) {
    kinds.insert(op.kind);
    if (op.kind == AtomicOp::Kind::kUtilityChanged && op.new_utility <= 0.0 &&
        op.user < planner->instance().num_users() &&
        planner->plan().Contains(op.user, op.event) &&
        planner->plan().attendance(op.event) <=
            planner->instance().event(op.event).lower_bound) {
      ++zeroed_refills;
    }
    auto result = planner->Apply(op);
    if (!result.ok()) {
      ++rejected;
      continue;
    }
    negative_impact += result->negative_impact;
    added_by_topup += result->added_by_topup;
    events_below_lower_bound += result->events_below_lower_bound;
  }
  EXPECT_EQ(kinds.size(), 7u);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(zeroed_refills, 0);

  auto state = SerializeServiceState(planner->instance(), planner->plan(),
                                     ops.size());
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(CheckpointChecksum(state->data(), state->size()),
            4351214710956841080u);
  EXPECT_EQ(rejected, 266);
  EXPECT_EQ(negative_impact, 613);
  EXPECT_EQ(added_by_topup, 420);
  EXPECT_EQ(events_below_lower_bound, 162878);
}

}  // namespace
}  // namespace gepc
