// Churn torture for the shard tracker: drive a seeded IEP trace through an
// IncrementalPlanner with a ShardTracker riding along, and at EVERY op index
// assert the governing invariant — the incrementally migrated partition is
// bit-identical to a from-scratch rebuild against the current sites. Sweeps
// also interleave warm-started rebalances mid-trace and force the degraded
// (full-rebuild) migration path with the `shard.migrate` fault; the
// invariant must survive all of it.

#include "shard/rebalance.h"

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

/// Seeded op trace against `instance`: GenerateTortureOps needs a planner to
/// keep event ids meaningful as `new` ops land, so a throwaway planner
/// absorbs the generation pass and the caller replays the ops fresh.
std::vector<AtomicOp> MakeTrace(const Instance& instance, const Plan& plan,
                                int count, uint64_t seed) {
  auto scratch = IncrementalPlanner::Create(instance, plan);
  EXPECT_TRUE(scratch.ok()) << scratch.status();
  return GenerateTortureOps(&*scratch, count, seed);
}

class ChurnTortureTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Registry::Global().Reset(); }
  void TearDown() override { fault::Registry::Global().Reset(); }

  /// Replays `ops` through a fresh planner + tracker, asserting the
  /// invariant after every applied op (ops the planner rejects leave the
  /// instance untouched, so the tracker skips them — exactly the service's
  /// behaviour). `rebalance_every` > 0 interleaves a Rebalance after every
  /// N applied ops and re-asserts. Fills `stats_out` with the tracker's
  /// final stats (ASSERT needs a void function).
  static void Replay(const Instance& instance, const Plan& plan,
                     const std::vector<AtomicOp>& ops, int num_shards,
                     int rebalance_every, ShardTrackerStats* stats_out) {
    auto planner = IncrementalPlanner::Create(instance, plan);
    EXPECT_TRUE(planner.ok()) << planner.status();
    ShardTracker tracker(planner->instance(), num_shards);
    EXPECT_EQ(tracker.partition(),
              tracker.RebuildFromSites(planner->instance()));
    int applied = 0;
    for (size_t index = 0; index < ops.size(); ++index) {
      if (!planner->Apply(ops[index]).ok()) continue;
      ++applied;
      const Status migrated =
          tracker.ApplyMigration(planner->instance(), ops[index]);
      ASSERT_TRUE(migrated.ok()) << "op " << index << ": " << migrated;
      // The invariant, at every migration point: incremental == rebuild.
      ASSERT_EQ(tracker.partition(),
                tracker.RebuildFromSites(planner->instance()))
          << "diverged after op " << index;
      if (rebalance_every > 0 && applied % rebalance_every == 0) {
        auto report = tracker.Rebalance(planner->instance());
        ASSERT_TRUE(report.ok()) << "op " << index << ": "
                                 << report.status();
        ASSERT_EQ(tracker.partition(),
                  tracker.RebuildFromSites(planner->instance()))
            << "diverged after rebalance at op " << index;
      }
    }
    EXPECT_GT(applied, 0);
    *stats_out = tracker.stats();
  }
};

TEST_F(ChurnTortureTest, MigratedStateEqualsRebuildAtEveryOpIndex) {
  for (const uint64_t seed : {1u, 2u}) {
    const Instance instance = MakeLocalInstance(80, 14, seed);
    auto solved = SolveGepc(instance, GepcOptions{});
    ASSERT_TRUE(solved.ok()) << solved.status();
    const std::vector<AtomicOp> ops =
        MakeTrace(instance, solved->plan, 60, seed * 7 + 1);
    for (const int shards : {2, 4}) {
      ShardTrackerStats stats;
      Replay(instance, solved->plan, ops, shards, /*rebalance_every=*/0,
             &stats);
      // The trace's budget/location/new-event ops must actually exercise
      // the migration machinery, or the sweep proves nothing.
      EXPECT_GT(stats.migrations, 0u) << "seed " << seed;
      EXPECT_EQ(stats.full_rebuilds, 0u);
    }
  }
}

TEST_F(ChurnTortureTest, InvariantSurvivesInterleavedRebalances) {
  const Instance instance = MakeLocalInstance(90, 16, 5);
  auto solved = SolveGepc(instance, GepcOptions{});
  ASSERT_TRUE(solved.ok()) << solved.status();
  const std::vector<AtomicOp> ops = MakeTrace(instance, solved->plan, 48, 11);
  ShardTrackerStats stats;
  Replay(instance, solved->plan, ops, 3, /*rebalance_every=*/7, &stats);
  EXPECT_GT(stats.rebalances, 0u);
  EXPECT_GT(stats.migrations, 0u);
}

TEST_F(ChurnTortureTest, DegradedFullRebuildPathKeepsTheSameInvariant) {
  const Instance instance = MakeLocalInstance(80, 14, 3);
  auto solved = SolveGepc(instance, GepcOptions{});
  ASSERT_TRUE(solved.ok()) << solved.status();
  const std::vector<AtomicOp> ops = MakeTrace(instance, solved->plan, 40, 13);
  // Every migration attempt degrades to a full rebuild (no count bound):
  // degraded must mean slower, never different.
  ASSERT_TRUE(fault::ArmFromSpec("shard.migrate=unavailable").ok());
  ShardTrackerStats stats;
  Replay(instance, solved->plan, ops, 4, /*rebalance_every=*/0, &stats);
  EXPECT_GT(stats.full_rebuilds, 0u);
}

TEST_F(ChurnTortureTest, RebalanceFaultAbortsAndLeavesPartitionUntouched) {
  const Instance instance = MakeLocalInstance(70, 12, 9);
  auto solved = SolveGepc(instance, GepcOptions{});
  ASSERT_TRUE(solved.ok()) << solved.status();
  auto planner = IncrementalPlanner::Create(instance, solved->plan);
  ASSERT_TRUE(planner.ok());
  ShardTracker tracker(planner->instance(), 3);
  const ShardPartition before = tracker.partition();
  ASSERT_TRUE(fault::ArmFromSpec("shard.rebalance=unavailable:count=1").ok());
  auto aborted = tracker.Rebalance(planner->instance());
  EXPECT_FALSE(aborted.ok());
  EXPECT_EQ(tracker.partition(), before);
  EXPECT_EQ(tracker.stats().rebalances, 0u);
  // The window fault is spent; the next attempt goes through.
  auto report = tracker.Rebalance(planner->instance());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(tracker.stats().rebalances, 1u);
  EXPECT_EQ(tracker.partition(),
            tracker.RebuildFromSites(planner->instance()));
}

// Load accounting: the shards each op is charged to and the skew the
// charges produce. Fixed elapsed times make Skew() exact.
TEST(ShardTrackerTest, RoutesChargesAndResetsTheLoadWindow) {
  const Instance instance = MakeLocalInstance(60, 10, 4);
  auto solved = SolveGepc(instance, GepcOptions{});
  ASSERT_TRUE(solved.ok()) << solved.status();
  auto planner = IncrementalPlanner::Create(instance, solved->plan);
  ASSERT_TRUE(planner.ok()) << planner.status();
  ShardTracker tracker(planner->instance(), 3);
  EXPECT_EQ(tracker.Skew(), 0.0);
  // User 3 is interior to shard 2, event 8 lives in shard 1 and user 1 is
  // a boundary user, so the three ops charge one shard, another shard and
  // every shard. A shard's load is its charged ms plus 0.001 per op, and
  // Skew() is the largest load over the mean load.
  ASSERT_EQ(tracker.partition().user_shard[3], 2);
  ASSERT_EQ(tracker.partition().event_shard[8], 1);
  ASSERT_EQ(tracker.partition().user_shard[1], kBoundaryUser);
  const struct {
    AtomicOp op;
    double elapsed_ms;
    std::vector<int> shards;
    double skew;
  } steps[] = {
      {AtomicOp::BudgetChange(3, 17.0), 2.0, {2}, 3.0},  // 2.001 / (2.001/3)
      {AtomicOp::UpperBoundChange(8, 40), 1.0, {1},
       1.9996668887408395},  // 2.001 / (3.002/3)
      {AtomicOp::BudgetChange(1, 12.5), 3.0, {},
       1.4997502081598668},  // 3.002 / (6.005/3)
      // An op on an interior user and an event splits its cost.
      {AtomicOp::UtilityChange(3, 8, 0.5), 2.0, {1, 2},
       1.4998126639190708},  // 4.003 / (8.007/3)
  };
  for (const auto& step : steps) {
    ASSERT_TRUE(planner->Apply(step.op).ok());
    EXPECT_EQ(tracker.RouteOp(planner->instance(), step.op), step.shards);
    ASSERT_TRUE(tracker
                    .TrackAppliedOp(planner->instance(), step.op,
                                    step.elapsed_ms)
                    .ok());
    EXPECT_DOUBLE_EQ(tracker.Skew(), step.skew);
  }
  ASSERT_TRUE(tracker.Rebalance(planner->instance()).ok());
  EXPECT_EQ(tracker.Skew(), 0.0);
}

}  // namespace
}  // namespace gepc
