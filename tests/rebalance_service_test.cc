// Service-level coverage of the online rebalancer: the tracker rides the
// writer thread, rebalance requests share the FIFO with ops, the skew
// cadence auto-triggers, stats surface the tracker's counters, and the
// `shard.rebalance` fault degrades a request without touching the
// partition or the served plan.

#include "service/planning_service.h"

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.h"
#include "gepc/solver.h"
#include "iep/planner.h"
#include "service/torture.h"
#include "tests/local_instance.h"

namespace gepc {
namespace {

using testing_support::MakeLocalInstance;

class RebalanceServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Registry::Global().Reset();
    instance_ = MakeLocalInstance(80, 14, 4);
    auto solved = SolveGepc(instance_, GepcOptions{});
    ASSERT_TRUE(solved.ok()) << solved.status();
    plan_ = solved->plan;
  }
  void TearDown() override { fault::Registry::Global().Reset(); }

  std::vector<AtomicOp> MakeTrace(int count, uint64_t seed) {
    auto scratch = IncrementalPlanner::Create(instance_, plan_);
    EXPECT_TRUE(scratch.ok()) << scratch.status();
    return GenerateTortureOps(&*scratch, count, seed);
  }

  Instance instance_;
  Plan plan_;
};

TEST_F(RebalanceServiceTest, ExplicitRebalanceReportsAndCounts) {
  ServiceOptions options;
  options.rebalance_shards = 3;
  auto service = PlanningService::Create(instance_, plan_, options);
  ASSERT_TRUE(service.ok()) << service.status();

  int applied = 0;
  for (const AtomicOp& op : MakeTrace(20, 21)) {
    if ((*service)->Apply(op).applied) ++applied;
  }
  ASSERT_GT(applied, 0);

  const RebalanceOutcome outcome = (*service)->Rebalance();
  EXPECT_TRUE(outcome.rebalanced) << outcome.error;
  EXPECT_EQ(outcome.sequence, (*service)->Stats().ops_applied +
                                  (*service)->Stats().ops_rejected);
  EXPECT_GE(outcome.report.skew_before, 0.0);

  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.rebalance_shards, 3);
  EXPECT_EQ(stats.rebalances, 1u);
  EXPECT_EQ(stats.rebalance_failures, 0u);
  EXPECT_GT(stats.shard_migrations, 0u);
  EXPECT_EQ(stats.last_rebalance_version, outcome.sequence);
}

TEST_F(RebalanceServiceTest, RebalanceFailsCleanlyWhenTrackerDisabled) {
  auto service = PlanningService::Create(instance_, plan_);
  ASSERT_TRUE(service.ok()) << service.status();
  const RebalanceOutcome outcome = (*service)->Rebalance();
  EXPECT_FALSE(outcome.rebalanced);
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_EQ((*service)->Stats().rebalance_shards, 0);
  EXPECT_EQ((*service)->Stats().rebalance_failures, 1u);
}

TEST_F(RebalanceServiceTest, SkewCadenceAutoTriggersRebalances) {
  ServiceOptions options;
  options.rebalance_shards = 2;
  options.rebalance_every = 5;
  options.rebalance_skew = 0.0;  // fire on every cadence check
  auto service = PlanningService::Create(instance_, plan_, options);
  ASSERT_TRUE(service.ok()) << service.status();

  int applied = 0;
  for (const AtomicOp& op : MakeTrace(40, 33)) {
    if ((*service)->Apply(op).applied) ++applied;
  }
  ASSERT_GE(applied, 10);

  const ServiceStats stats = (*service)->Stats();
  EXPECT_GT(stats.rebalances, 0u);
  EXPECT_GT(stats.last_rebalance_version, 0u);
}

TEST_F(RebalanceServiceTest, RebalanceFaultDegradesWithoutTouchingState) {
  ServiceOptions options;
  options.rebalance_shards = 3;
  auto service = PlanningService::Create(instance_, plan_, options);
  ASSERT_TRUE(service.ok()) << service.status();

  const auto before = (*service)->snapshot();
  ASSERT_TRUE(fault::ArmFromSpec("shard.rebalance=unavailable:count=1").ok());
  const RebalanceOutcome aborted = (*service)->Rebalance();
  EXPECT_FALSE(aborted.rebalanced);
  EXPECT_FALSE(aborted.error.empty());
  EXPECT_EQ((*service)->Stats().rebalance_failures, 1u);
  EXPECT_EQ((*service)->Stats().rebalances, 0u);
  // The served plan never depended on the partition — still the same.
  EXPECT_TRUE(*(*service)->snapshot()->plan == *before->plan);

  // Fault spent: the next request succeeds.
  const RebalanceOutcome retried = (*service)->Rebalance();
  EXPECT_TRUE(retried.rebalanced) << retried.error;
  EXPECT_EQ((*service)->Stats().rebalances, 1u);
}

TEST_F(RebalanceServiceTest, MigrateFaultCountsFullRebuildsInStats) {
  ServiceOptions options;
  options.rebalance_shards = 2;
  auto service = PlanningService::Create(instance_, plan_, options);
  ASSERT_TRUE(service.ok()) << service.status();

  ASSERT_TRUE(fault::ArmFromSpec("shard.migrate=unavailable").ok());
  int applied = 0;
  for (const AtomicOp& op : MakeTrace(20, 55)) {
    if ((*service)->Apply(op).applied) ++applied;
  }
  ASSERT_GT(applied, 0);
  // Migrations degraded, ops kept applying, and the stats say so.
  EXPECT_GT((*service)->Stats().shard_full_rebuilds, 0u);
  EXPECT_EQ((*service)->Stats().ops_applied, static_cast<uint64_t>(applied));
}

TEST_F(RebalanceServiceTest, StatsStayZeroWithoutTracker) {
  auto service = PlanningService::Create(instance_, plan_);
  ASSERT_TRUE(service.ok()) << service.status();
  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.rebalance_shards, 0);
  EXPECT_EQ(stats.shard_skew, 0.0);
  EXPECT_EQ(stats.shard_boundary_users, 0u);
  EXPECT_EQ(stats.shard_migrations, 0u);
}

}  // namespace
}  // namespace gepc
