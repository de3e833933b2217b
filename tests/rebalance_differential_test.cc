// Differential gate for the centroidal-Voronoi partitioner feeding the
// sharded solver: under kVoronoi, SolveSharded must stay feasible and
// within 5% of the sequential utility at every shard count (the same bound
// the bisection cut honors), and shards=1 must stay byte-identical to the
// sequential solver — the partitioner choice can never leak into the
// degenerate case.

#include "shard/sharded_solver.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/feasibility.h"
#include "data/io.h"
#include "gepc/solver.h"
#include "shard/voronoi.h"
#include "tests/local_instance.h"

namespace gepc {
namespace {

using testing_support::MakeLocalInstance;

std::string Serialize(const Plan& plan) {
  std::ostringstream out;
  EXPECT_TRUE(SavePlan(plan, out).ok());
  return out.str();
}

TEST(RebalanceDifferentialTest, VoronoiUtilityWithinFivePercentOfSequential) {
  for (const uint64_t seed : {101u, 202u, 303u}) {
    const Instance instance = MakeLocalInstance(140, 36, seed);
    auto sequential = SolveGepc(instance, GepcOptions{});
    ASSERT_TRUE(sequential.ok()) << sequential.status();
    ASSERT_GT(sequential->total_utility, 0.0);

    for (const int shards : {2, 4, 8}) {
      ShardedGepcOptions options;
      options.shards = shards;
      options.threads = 2;
      options.partitioner = ShardPartitioner::kVoronoi;
      auto sharded = SolveSharded(instance, options);
      ASSERT_TRUE(sharded.ok())
          << "seed " << seed << " shards " << shards << ": "
          << sharded.status();

      ValidationOptions lenient;
      lenient.check_lower_bounds = false;
      const Status valid = ValidatePlan(instance, sharded->plan, lenient);
      EXPECT_TRUE(valid.ok())
          << "seed " << seed << " shards " << shards << ": " << valid;

      EXPECT_GE(sharded->total_utility, 0.95 * sequential->total_utility)
          << "seed " << seed << " shards " << shards << ": voronoi "
          << sharded->total_utility << " vs sequential "
          << sequential->total_utility;
    }
  }
}

TEST(RebalanceDifferentialTest, SingleShardIsByteIdenticalToSequential) {
  const Instance instance = MakeLocalInstance(120, 30, 404);
  auto sequential = SolveGepc(instance, GepcOptions{});
  ASSERT_TRUE(sequential.ok()) << sequential.status();

  ShardedGepcOptions options;
  options.shards = 1;
  options.partitioner = ShardPartitioner::kVoronoi;
  auto sharded = SolveSharded(instance, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  EXPECT_EQ(Serialize(sharded->plan), Serialize(sequential->plan));
  EXPECT_DOUBLE_EQ(sharded->total_utility, sequential->total_utility);
}

TEST(RebalanceDifferentialTest, PartitionerChoiceChangesOnlyTheCut) {
  // Both partitioners feed the identical per-shard solver; whatever cut
  // they produce, the result must validate and report consistent utility.
  const Instance instance = MakeLocalInstance(130, 32, 505);
  for (const ShardPartitioner partitioner :
       {ShardPartitioner::kBisection, ShardPartitioner::kVoronoi}) {
    ShardedGepcOptions options;
    options.shards = 4;
    options.partitioner = partitioner;
    auto sharded = SolveSharded(instance, options);
    ASSERT_TRUE(sharded.ok()) << sharded.status();
    EXPECT_NEAR(sharded->plan.TotalUtility(instance), sharded->total_utility,
                1e-9);
  }
}

}  // namespace
}  // namespace gepc
