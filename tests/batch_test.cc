#include "iep/batch.h"

#include <gtest/gtest.h>

#include "core/feasibility.h"
#include "data/generator.h"
#include "gepc/solver.h"
#include "tests/paper_example.h"

namespace gepc {
namespace {

using testing_support::kE2;
using testing_support::kE4;
using testing_support::MakePaperInstance;
using testing_support::MakePaperPlan;

IncrementalPlanner MakePlanner() {
  auto planner =
      IncrementalPlanner::Create(MakePaperInstance(), MakePaperPlan());
  EXPECT_TRUE(planner.ok());
  return *std::move(planner);
}

TEST(BatchTest, SequentialMatchesRepeatedApply) {
  std::vector<AtomicOp> ops = {
      AtomicOp::UpperBoundChange(kE4, 1),
      AtomicOp::LowerBoundChange(kE2, 3),
  };

  IncrementalPlanner manual = MakePlanner();
  int64_t manual_dif = 0;
  for (const AtomicOp& op : ops) {
    auto step = manual.Apply(op);
    ASSERT_TRUE(step.ok());
    manual_dif += step->negative_impact;
  }

  IncrementalPlanner batched = MakePlanner();
  auto batch = ApplyBatch(&batched, ops, BatchMode::kSequential);
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_TRUE(batched.plan() == manual.plan());
  EXPECT_EQ(batch->negative_impact, manual_dif);
  EXPECT_EQ(batch->ops_applied, 2);
}

TEST(BatchTest, ReorderedEndsFeasible) {
  IncrementalPlanner planner = MakePlanner();
  std::vector<AtomicOp> ops = {
      AtomicOp::LowerBoundChange(kE4, 3),    // demand (phase 2)
      AtomicOp::UpperBoundChange(kE2, 2),    // shrink (phase 0)
      AtomicOp::TimeChange(testing_support::kE1,
                           {15 * 60 + 30, 17 * 60 + 30}),  // phase 1
  };
  auto batch = ApplyBatch(&planner, ops, BatchMode::kReordered);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ValidationOptions options;
  options.check_lower_bounds = false;
  EXPECT_TRUE(
      ValidatePlan(planner.instance(), planner.plan(), options).ok());
  EXPECT_EQ(batch->ops_applied, 3);
}

TEST(BatchTest, EmptyBatchIsNoop) {
  IncrementalPlanner planner = MakePlanner();
  const Plan before = planner.plan();
  auto batch = ApplyBatch(&planner, {}, BatchMode::kSequential);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(planner.plan() == before);
  EXPECT_EQ(batch->negative_impact, 0);
  EXPECT_EQ(batch->ops_applied, 0);
}

TEST(BatchTest, NullPlannerRejected) {
  auto batch = ApplyBatch(nullptr, {}, BatchMode::kSequential);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
}

TEST(BatchTest, InvalidOpStopsBatch) {
  IncrementalPlanner planner = MakePlanner();
  std::vector<AtomicOp> ops = {
      AtomicOp::UpperBoundChange(kE4, 1),
      AtomicOp::BudgetChange(0, -5.0),  // invalid
      AtomicOp::LowerBoundChange(kE2, 3),
  };
  auto batch = ApplyBatch(&planner, ops, BatchMode::kSequential);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  // The first op stays applied, like running ops one by one.
  EXPECT_EQ(planner.instance().event(kE4).upper_bound, 1);
}

TEST(BatchTest, ReorderedRunsRemovalsBeforeDemands) {
  // Shrinking e2 to 2 frees its third attendee; raising xi_4 to 3 needs
  // one more user. Reordered mode runs the shrink first so the freed user
  // is available for the demand; both orders must end feasible, and the
  // reordered batch must not do worse on dif.
  std::vector<AtomicOp> ops = {
      AtomicOp::LowerBoundChange(kE4, 3),
      AtomicOp::UpperBoundChange(kE2, 2),
  };
  IncrementalPlanner sequential = MakePlanner();
  auto seq = ApplyBatch(&sequential, ops, BatchMode::kSequential);
  IncrementalPlanner reordered = MakePlanner();
  auto reord = ApplyBatch(&reordered, ops, BatchMode::kReordered);
  ASSERT_TRUE(seq.ok() && reord.ok());
  EXPECT_EQ(reordered.plan().attendance(kE4), 3);
  EXPECT_LE(reordered.plan().attendance(kE2), 2);
  EXPECT_LE(reord->negative_impact, seq->negative_impact + 1);
}

TEST(BatchTest, RandomBatchesKeepInvariants) {
  GeneratorConfig config;
  config.num_users = 50;
  config.num_events = 12;
  config.mean_eta = 8.0;
  config.mean_xi = 3.0;
  config.seed = 808;
  auto instance = GenerateInstance(config);
  ASSERT_TRUE(instance.ok());
  auto initial = SolveGepc(*instance, GepcOptions{});
  ASSERT_TRUE(initial.ok());

  for (BatchMode mode : {BatchMode::kSequential, BatchMode::kReordered}) {
    auto planner = IncrementalPlanner::Create(*instance, initial->plan);
    ASSERT_TRUE(planner.ok());
    std::vector<AtomicOp> ops;
    for (int j = 0; j < 6; ++j) {
      if (j % 2 == 0) {
        ops.push_back(AtomicOp::UpperBoundChange(
            j, std::max(0, instance->event(j).upper_bound - 2)));
      } else {
        ops.push_back(AtomicOp::LowerBoundChange(
            j, std::min(instance->event(j).upper_bound,
                        instance->event(j).lower_bound + 1)));
      }
    }
    auto batch = ApplyBatch(&*planner, ops, mode);
    ASSERT_TRUE(batch.ok());
    ValidationOptions options;
    options.check_lower_bounds = false;
    EXPECT_TRUE(ValidatePlan(planner->instance(), planner->plan(), options)
                    .ok());
    EXPECT_GE(batch->negative_impact, 0);
  }
}

TEST(BatchTest, ReofferReportsAdditions) {
  // Shrink then fully relax an event in one reordered batch: the closing
  // re-offer can restore attendances (dif-free additions).
  IncrementalPlanner planner = MakePlanner();
  std::vector<AtomicOp> ops = {
      AtomicOp::UpperBoundChange(kE2, 1),
      AtomicOp::UpperBoundChange(kE2, 4),
  };
  auto batch = ApplyBatch(&planner, ops, BatchMode::kReordered);
  ASSERT_TRUE(batch.ok());
  EXPECT_GE(batch->added_by_final_reoffer, 0);
  ValidationOptions options;
  options.check_lower_bounds = false;
  EXPECT_TRUE(
      ValidatePlan(planner.instance(), planner.plan(), options).ok());
}

}  // namespace
}  // namespace gepc
