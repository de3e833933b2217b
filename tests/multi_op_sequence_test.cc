// Long-horizon incremental planning: the paper treats multiple changes as
// repeated single atomic operations (Sec. II-B); these tests drive long
// sequences through one IncrementalPlanner and check the state never decays
// into infeasibility, plus "inverse pair" behaviours (tighten then relax).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/feasibility.h"
#include "data/generator.h"
#include "gepc/solver.h"
#include "iep/planner.h"
#include "tests/paper_example.h"

namespace gepc {
namespace {

using testing_support::kE2;
using testing_support::kE4;
using testing_support::MakePaperInstance;
using testing_support::MakePaperPlan;

TEST(MultiOpSequenceTest, TightenThenRelaxEtaRecoversCapacityUse) {
  auto planner =
      IncrementalPlanner::Create(MakePaperInstance(), MakePaperPlan());
  ASSERT_TRUE(planner.ok());

  // Tighten: eta_4 -> 1 evicts u4 (Example 6).
  ASSERT_TRUE(planner->Apply(AtomicOp::UpperBoundChange(kE4, 1)).ok());
  EXPECT_EQ(planner->plan().attendance(kE4), 1);

  // Relax back to 5: the re-offer lets users return to e4 if it still
  // fits their (possibly re-arranged) plans.
  auto relaxed = planner->Apply(AtomicOp::UpperBoundChange(kE4, 5));
  ASSERT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed->negative_impact, 0);
  EXPECT_GE(planner->plan().attendance(kE4), 1);
}

TEST(MultiOpSequenceTest, RepeatedXiIncreasesSaturateAtEta) {
  auto planner =
      IncrementalPlanner::Create(MakePaperInstance(), MakePaperPlan());
  ASSERT_TRUE(planner.ok());
  for (int xi = 2; xi <= 5; ++xi) {
    auto result = planner->Apply(AtomicOp::LowerBoundChange(kE4, xi));
    ASSERT_TRUE(result.ok()) << "xi=" << xi;
    EXPECT_LE(planner->plan().attendance(kE4), 5);
  }
  // eta_4 = 5, so attendance can never exceed 5 no matter how xi moved.
  EXPECT_LE(planner->plan().attendance(kE4), 5);
}

TEST(MultiOpSequenceTest, ZeroThenRestoreUtility) {
  auto planner =
      IncrementalPlanner::Create(MakePaperInstance(), MakePaperPlan());
  ASSERT_TRUE(planner.ok());
  ASSERT_TRUE(planner->Apply(AtomicOp::UtilityChange(2, kE2, 0.0)).ok());
  EXPECT_FALSE(planner->plan().Contains(2, kE2));
  // The displacement re-offer compensates u3 with e4 (0.5), which then
  // blocks e2's return (e2 and e4 touch) — restoring interest must keep
  // the plan feasible and add nothing infeasible, with zero impact.
  EXPECT_TRUE(planner->plan().Contains(2, kE4));
  auto restored = planner->Apply(AtomicOp::UtilityChange(2, kE2, 0.7));
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(planner->plan().Contains(2, kE2));
  EXPECT_EQ(restored->negative_impact, 0);
  ValidationOptions validation;
  validation.check_lower_bounds = false;
  EXPECT_TRUE(
      ValidatePlan(planner->instance(), planner->plan(), validation).ok());
}

TEST(MultiOpSequenceTest, FiftyRandomOpsNeverBreakFeasibility) {
  GeneratorConfig config;
  config.num_users = 70;
  config.num_events = 16;
  config.mean_eta = 10.0;
  config.mean_xi = 3.0;
  config.seed = 424242;
  auto instance = GenerateInstance(config);
  ASSERT_TRUE(instance.ok());
  auto initial = SolveGepc(*instance, GepcOptions{});
  ASSERT_TRUE(initial.ok());
  auto planner = IncrementalPlanner::Create(*instance, initial->plan);
  ASSERT_TRUE(planner.ok());

  Rng rng(31337);
  ValidationOptions validation;
  validation.check_lower_bounds = false;
  for (int step = 0; step < 50; ++step) {
    const Instance& current = planner->instance();
    const EventId event = static_cast<EventId>(
        rng.UniformUint64(static_cast<uint64_t>(current.num_events())));
    const UserId user = static_cast<UserId>(
        rng.UniformUint64(static_cast<uint64_t>(current.num_users())));
    AtomicOp op;
    switch (step % 5) {
      case 0:
        op = AtomicOp::UpperBoundChange(
            event, std::max(0, current.event(event).upper_bound - 2));
        break;
      case 1:
        op = AtomicOp::LowerBoundChange(
            event, std::min(current.event(event).upper_bound,
                            current.event(event).lower_bound + 1));
        break;
      case 2: {
        const Interval old = current.event(event).time;
        op = AtomicOp::TimeChange(event, {old.start + 45, old.end + 45});
        break;
      }
      case 3:
        op = AtomicOp::UtilityChange(user, event, rng.UniformDouble());
        break;
      default:
        op = AtomicOp::BudgetChange(user, current.user(user).budget * 0.9);
        break;
    }
    auto result = planner->Apply(op);
    ASSERT_TRUE(result.ok()) << "step " << step << ": " << result.status();
    ASSERT_TRUE(
        ValidatePlan(planner->instance(), planner->plan(), validation).ok())
        << "step " << step;
  }
}

TEST(MultiOpSequenceTest, ShrinkingEveryBudgetEmptiesPlansGracefully) {
  auto planner =
      IncrementalPlanner::Create(MakePaperInstance(), MakePaperPlan());
  ASSERT_TRUE(planner.ok());
  for (int i = 0; i < 5; ++i) {
    auto result = planner->Apply(AtomicOp::BudgetChange(i, 0.0));
    ASSERT_TRUE(result.ok());
  }
  // Budget 0 means no one can travel anywhere: all plans empty.
  EXPECT_EQ(planner->plan().TotalAssignments(), 0);
  ValidationOptions validation;
  validation.check_lower_bounds = false;
  EXPECT_TRUE(
      ValidatePlan(planner->instance(), planner->plan(), validation).ok());
}

}  // namespace
}  // namespace gepc
