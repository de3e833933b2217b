#include "shard/sharded_solver.h"

#include <gtest/gtest.h>

#include <utility>

#include "core/feasibility.h"
#include "gepc/solver.h"
#include "tests/local_instance.h"
#include "tests/paper_example.h"

namespace gepc {
namespace {

using testing_support::MakeLocalInstance;
using testing_support::MakePaperInstance;

TEST(SolveShardedTest, SingleShardByteIdenticalToSequentialSolver) {
  for (const Instance& instance :
       {MakePaperInstance(), MakeLocalInstance(80, 25, 3)}) {
    ShardedGepcOptions options;  // shards = 1
    auto sharded = SolveSharded(instance, options);
    auto sequential = SolveGepc(instance, options.gepc);
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    ASSERT_TRUE(sequential.ok()) << sequential.status();
    EXPECT_TRUE(sharded->plan == sequential->plan);
    EXPECT_DOUBLE_EQ(sharded->total_utility, sequential->total_utility);
    EXPECT_EQ(sharded->events_below_lower_bound,
              sequential->events_below_lower_bound);
    EXPECT_EQ(sharded->unplaced_copies, sequential->unplaced_copies);
  }
}

TEST(SolveShardedTest, ThreadCountNeverChangesTheResult) {
  const Instance instance = MakeLocalInstance(150, 40, 7);
  ShardedGepcOptions base;
  base.shards = 4;
  base.threads = 1;
  auto reference = SolveSharded(instance, base);
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (int threads : {2, 8}) {
    ShardedGepcOptions options = base;
    options.threads = threads;
    auto result = SolveSharded(instance, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_TRUE(result->plan == reference->plan) << threads << " threads";
    EXPECT_DOUBLE_EQ(result->total_utility, reference->total_utility);
  }
}

TEST(SolveShardedTest, MergedPlanSatisfiesUserSideConstraints) {
  for (uint64_t seed : {1u, 5u, 9u}) {
    const Instance instance = MakeLocalInstance(120, 35, seed);
    for (int shards : {2, 4, 6}) {
      ShardedGepcOptions options;
      options.shards = shards;
      options.threads = 2;
      ShardedGepcStats stats;
      auto result = SolveSharded(instance, options, &stats);
      ASSERT_TRUE(result.ok()) << result.status();
      // Constraints 1-3 are hard; lower bounds are best-effort with the
      // shortfall reported, mirroring the sequential contract.
      ValidationOptions validation;
      validation.check_lower_bounds = false;
      EXPECT_TRUE(ValidatePlan(instance, result->plan, validation).ok())
          << "seed " << seed << " shards " << shards;
      int below = 0;
      for (EventId j = 0; j < instance.num_events(); ++j) {
        if (result->plan.attendance(j) < instance.event(j).lower_bound) {
          ++below;
        }
      }
      EXPECT_EQ(result->events_below_lower_bound, below);
      EXPECT_DOUBLE_EQ(result->total_utility,
                       result->plan.TotalUtility(instance));
      EXPECT_EQ(stats.interior_users + stats.boundary_users,
                instance.num_users());
    }
  }
}

TEST(SolveShardedTest, DeterministicAcrossRepeatedRuns) {
  const Instance instance = MakeLocalInstance(100, 30, 21);
  ShardedGepcOptions options;
  options.shards = 4;
  options.threads = 4;
  auto a = SolveSharded(instance, options);
  auto b = SolveSharded(instance, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->plan == b->plan);
}

TEST(SolveShardedTest, WorksAcrossAlgorithms) {
  const Instance instance = MakeLocalInstance(80, 25, 17);
  for (GepcAlgorithm algorithm :
       {GepcAlgorithm::kGreedy, GepcAlgorithm::kRegret}) {
    ShardedGepcOptions options;
    options.shards = 3;
    options.threads = 2;
    options.gepc.algorithm = algorithm;
    auto result = SolveSharded(instance, options);
    ASSERT_TRUE(result.ok())
        << GepcAlgorithmName(algorithm) << ": " << result.status();
    ValidationOptions validation;
    validation.check_lower_bounds = false;
    EXPECT_TRUE(ValidatePlan(instance, result->plan, validation).ok());
    EXPECT_GT(result->total_utility, 0.0);
  }
}

TEST(SolveShardedTest, ShardsBeyondOccupiedCellsStillSolve) {
  // Paper instance: 6 events in a tiny area; asking for 8 shards leaves
  // several empty, which must not break the solve or the merge.
  const Instance instance = MakePaperInstance();
  ShardedGepcOptions options;
  options.shards = 8;
  options.threads = 2;
  ShardedGepcStats stats;
  auto result = SolveSharded(instance, options, &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  ValidationOptions validation;
  validation.check_lower_bounds = false;
  EXPECT_TRUE(ValidatePlan(instance, result->plan, validation).ok());
  EXPECT_GT(result->total_utility, 0.0);
}

TEST(SolveShardedTest, ShardedUtilityStaysCompetitive) {
  // The cut + merge should not crater quality on a spatially local
  // instance: demand at least 90% of the sequential utility here (the
  // bench demands >= 99% on large instances; small ones are noisier).
  const Instance instance = MakeLocalInstance(200, 50, 31);
  ShardedGepcOptions options;
  options.shards = 4;
  auto sharded = SolveSharded(instance, options);
  auto sequential = SolveGepc(instance, options.gepc);
  ASSERT_TRUE(sharded.ok() && sequential.ok());
  ASSERT_GT(sequential->total_utility, 0.0);
  EXPECT_GE(sharded->total_utility, 0.9 * sequential->total_utility);
}

TEST(SolveShardedTest, NoTopupOptionPropagatesToShards) {
  const Instance instance = MakeLocalInstance(80, 25, 41);
  ShardedGepcOptions with;
  with.shards = 3;
  ShardedGepcOptions without = with;
  without.gepc.run_topup = false;
  auto with_result = SolveSharded(instance, with);
  auto without_result = SolveSharded(instance, without);
  ASSERT_TRUE(with_result.ok() && without_result.ok());
  EXPECT_LE(without_result->plan.TotalAssignments(),
            with_result->plan.TotalAssignments());
}

}  // namespace
}  // namespace gepc
