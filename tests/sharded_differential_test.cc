// Differential check of the sharded solver against the sequential one:
// across randomized instances and shard counts, SolveSharded must produce a
// feasible plan whose total utility stays within a bounded fraction of the
// sequential SolveGepc answer. Sharding trades a little utility (boundary
// users see only their shard's events) for parallelism — this test pins
// down "a little".

#include <gtest/gtest.h>

#include <vector>

#include "core/feasibility.h"
#include "gepc/solver.h"
#include "shard/sharded_solver.h"
#include "tests/local_instance.h"

namespace gepc {
namespace {

using testing_support::MakeLocalInstance;

TEST(ShardedDifferentialTest, UtilityWithinFivePercentOfSequential) {
  for (const uint64_t seed : {101u, 202u, 303u}) {
    const Instance instance = MakeLocalInstance(140, 36, seed);
    auto sequential = SolveGepc(instance, GepcOptions{});
    ASSERT_TRUE(sequential.ok()) << sequential.status();
    ASSERT_GT(sequential->total_utility, 0.0);

    for (const int shards : {2, 4, 8}) {
      ShardedGepcOptions options;
      options.shards = shards;
      options.threads = 2;
      auto sharded = SolveSharded(instance, options);
      ASSERT_TRUE(sharded.ok())
          << "seed " << seed << " shards " << shards << ": "
          << sharded.status();

      // Hard constraints (conflicts, budgets, capacities) must hold; lower
      // bounds are best-effort under sharding, as in the sequential
      // contract for partial solutions.
      ValidationOptions lenient;
      lenient.check_lower_bounds = false;
      const Status valid = ValidatePlan(instance, sharded->plan, lenient);
      EXPECT_TRUE(valid.ok())
          << "seed " << seed << " shards " << shards << ": " << valid;

      EXPECT_GE(sharded->total_utility, 0.95 * sequential->total_utility)
          << "seed " << seed << " shards " << shards << ": sharded "
          << sharded->total_utility << " vs sequential "
          << sequential->total_utility;
    }
  }
}

TEST(ShardedDifferentialTest, ReportedUtilityMatchesPlan) {
  const Instance instance = MakeLocalInstance(120, 30, 404);
  ShardedGepcOptions options;
  options.shards = 4;
  options.threads = 2;
  auto sharded = SolveSharded(instance, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  EXPECT_NEAR(sharded->plan.TotalUtility(instance), sharded->total_utility,
              1e-9);
}

}  // namespace
}  // namespace gepc
