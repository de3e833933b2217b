#include "service/planning_service.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "iep/batch.h"
#include "iep/planner.h"
#include "iep/trace.h"
#include "service/journal.h"
#include "shard/sharded_solver.h"
#include "tests/paper_example.h"

namespace gepc {
namespace {

using testing_support::kE1;
using testing_support::kE2;
using testing_support::kE4;
using testing_support::MakePaperInstance;
using testing_support::MakePaperPlan;

std::string Tmp(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(PlanningServiceTest, CreatePublishesInitialSnapshot) {
  auto service = PlanningService::Create(MakePaperInstance(), MakePaperPlan());
  ASSERT_TRUE(service.ok()) << service.status();
  const auto snap = (*service)->snapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 0u);
  EXPECT_DOUBLE_EQ(snap->total_utility,
                   MakePaperPlan().TotalUtility(MakePaperInstance()));
  EXPECT_EQ(snap->total_assignments, MakePaperPlan().TotalAssignments());
}

TEST(PlanningServiceTest, CreateRejectsMismatchedPlan) {
  Plan wrong(2, 2);
  auto service = PlanningService::Create(MakePaperInstance(), wrong);
  EXPECT_FALSE(service.ok());
}

TEST(PlanningServiceTest, ApplyMatchesDirectPlanner) {
  const std::vector<AtomicOp> ops = {
      AtomicOp::UpperBoundChange(kE4, 1),
      AtomicOp::BudgetChange(1, 5.0),
      AtomicOp::LowerBoundChange(kE2, 3),
  };

  auto direct = IncrementalPlanner::Create(MakePaperInstance(),
                                           MakePaperPlan());
  ASSERT_TRUE(direct.ok());
  for (const AtomicOp& op : ops) ASSERT_TRUE(direct->Apply(op).ok());

  auto service = PlanningService::Create(MakePaperInstance(), MakePaperPlan());
  ASSERT_TRUE(service.ok());
  for (const AtomicOp& op : ops) {
    const ApplyOutcome outcome = (*service)->Apply(op);
    EXPECT_TRUE(outcome.applied) << outcome.error;
  }
  const auto snap = (*service)->snapshot();
  EXPECT_EQ(snap->version, ops.size());
  EXPECT_TRUE(*snap->plan == direct->plan());
  EXPECT_DOUBLE_EQ(snap->total_utility,
                   direct->plan().TotalUtility(direct->instance()));
}

TEST(PlanningServiceTest, SnapshotIsImmutableWhileServiceAdvances) {
  auto service = PlanningService::Create(MakePaperInstance(), MakePaperPlan());
  ASSERT_TRUE(service.ok());
  const auto before = (*service)->snapshot();
  const double utility_before = before->total_utility;
  const Plan plan_before = *before->plan;

  ASSERT_TRUE((*service)->Apply(AtomicOp::UpperBoundChange(kE4, 1)).applied);

  // The held snapshot still shows the old state; a fresh one has moved on.
  EXPECT_DOUBLE_EQ(before->total_utility, utility_before);
  EXPECT_TRUE(*before->plan == plan_before);
  EXPECT_EQ((*service)->snapshot()->version, 1u);
}

TEST(PlanningServiceTest, InvalidOpIsRejectedAndStateUnchanged) {
  auto service = PlanningService::Create(MakePaperInstance(), MakePaperPlan());
  ASSERT_TRUE(service.ok());
  const auto before = (*service)->snapshot();

  // Event 99 does not exist.
  const ApplyOutcome outcome =
      (*service)->Apply(AtomicOp::UpperBoundChange(99, 1));
  EXPECT_FALSE(outcome.applied);
  EXPECT_FALSE(outcome.error.empty());

  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.ops_rejected, 1u);
  EXPECT_EQ(stats.ops_applied, 0u);
  EXPECT_TRUE(*(*service)->snapshot()->plan == *before->plan);
}

TEST(PlanningServiceTest, QueryUserServesItineraries) {
  auto service = PlanningService::Create(MakePaperInstance(), MakePaperPlan());
  ASSERT_TRUE(service.ok());
  auto itinerary = (*service)->QueryUser(0);
  ASSERT_TRUE(itinerary.ok()) << itinerary.status();
  EXPECT_EQ(itinerary->user, 0);
  EXPECT_EQ(itinerary->stops.size(), 2u);  // u1 attends {e1, e2}
  EXPECT_FALSE((*service)->QueryUser(-1).ok());
  EXPECT_FALSE((*service)->QueryUser(99).ok());
}

TEST(PlanningServiceTest, SubmitAfterShutdownResolvesUnapplied) {
  auto service = PlanningService::Create(MakePaperInstance(), MakePaperPlan());
  ASSERT_TRUE(service.ok());
  (*service)->Shutdown();
  EXPECT_FALSE((*service)->accepting());

  const ApplyOutcome outcome =
      (*service)->Apply(AtomicOp::UpperBoundChange(kE4, 1));
  EXPECT_FALSE(outcome.applied);
  EXPECT_EQ((*service)->Stats().ops_dropped, 1u);

  auto try_submit = (*service)->TrySubmit(AtomicOp::UpperBoundChange(kE4, 1));
  ASSERT_FALSE(try_submit.ok());
  EXPECT_EQ(try_submit.status().code(), StatusCode::kUnavailable);

  (*service)->Shutdown();  // idempotent
}

TEST(PlanningServiceTest, JournalRecordsAcceptedOpsInOrder) {
  const std::string journal_path = Tmp("service_journal_order.gops");
  std::remove(journal_path.c_str());

  ServiceOptions options;
  options.journal_path = journal_path;
  auto service = PlanningService::Create(MakePaperInstance(), MakePaperPlan(),
                                         options);
  ASSERT_TRUE(service.ok()) << service.status();
  ASSERT_TRUE((*service)->Apply(AtomicOp::UpperBoundChange(kE4, 1)).applied);
  // Rejected ops are journaled too (they were accepted into the log first).
  EXPECT_FALSE((*service)->Apply(AtomicOp::UpperBoundChange(99, 1)).applied);
  ASSERT_TRUE((*service)->Apply(AtomicOp::BudgetChange(1, 5.0)).applied);
  (*service)->Shutdown();
  EXPECT_GT((*service)->Stats().journal_bytes, 0);

  auto replay = ReplayJournal(MakePaperInstance(), MakePaperPlan(),
                              journal_path);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->ops_applied, 2u);
  EXPECT_EQ(replay->ops_rejected, 1u);
  EXPECT_TRUE(replay->plan == *(*service)->snapshot()->plan);
}

TEST(PlanningServiceTest, CreateRefusesExistingJournalRecoverResumesIt) {
  const std::string journal_path = Tmp("service_journal_recover.gops");
  std::remove(journal_path.c_str());

  ServiceOptions options;
  options.journal_path = journal_path;
  {
    auto service = PlanningService::Create(MakePaperInstance(),
                                           MakePaperPlan(), options);
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE(
        (*service)->Apply(AtomicOp::UpperBoundChange(kE4, 1)).applied);
    (*service)->Shutdown();
  }

  // A second Create on the same journal must refuse...
  auto second = PlanningService::Create(MakePaperInstance(), MakePaperPlan(),
                                        options);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);

  // ...while Recover resumes exactly where the first service stopped.
  auto recovered = PlanningService::Recover(MakePaperInstance(),
                                            MakePaperPlan(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->snapshot()->version, 1u);
  const ApplyOutcome outcome =
      (*recovered)->Apply(AtomicOp::BudgetChange(1, 5.0));
  EXPECT_TRUE(outcome.applied);
  EXPECT_EQ(outcome.sequence, 2u);  // sequence numbers continue

  auto replay = ReplayJournal(MakePaperInstance(), MakePaperPlan(),
                              journal_path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->ops_applied, 2u);
}

TEST(PlanningServiceTest, RecoverWithoutJournalFileStartsFresh) {
  const std::string journal_path = Tmp("service_journal_fresh.gops");
  std::remove(journal_path.c_str());
  ServiceOptions options;
  options.journal_path = journal_path;
  auto service = PlanningService::Recover(MakePaperInstance(), MakePaperPlan(),
                                          options);
  ASSERT_TRUE(service.ok()) << service.status();
  EXPECT_EQ((*service)->snapshot()->version, 0u);
}

TEST(PlanningServiceTest, DrainWaitsForSubmittedOps) {
  auto service = PlanningService::Create(MakePaperInstance(), MakePaperPlan());
  ASSERT_TRUE(service.ok());
  std::vector<std::future<ApplyOutcome>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(
        (*service)->Submit(AtomicOp::BudgetChange(i % 5, 10.0 + i)));
  }
  (*service)->Drain();
  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.ops_applied + stats.ops_rejected, 50u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ((*service)->snapshot()->version, 50u);
  for (auto& future : futures) {
    EXPECT_TRUE(future.get().applied);
  }
}

TEST(PlanningServiceTest, StatsTrackLatencyAndImpact) {
  auto service = PlanningService::Create(MakePaperInstance(), MakePaperPlan());
  ASSERT_TRUE(service.ok());
  const ApplyOutcome outcome =
      (*service)->Apply(AtomicOp::UpperBoundChange(kE4, 1));
  ASSERT_TRUE(outcome.applied);
  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.ops_submitted, 1u);
  EXPECT_EQ(stats.ops_applied, 1u);
  EXPECT_GE(stats.negative_impact_total, 0);
  EXPECT_GT(stats.apply_ms.max, 0.0);
  EXPECT_GE(stats.apply_ms.Quantile(0.99), stats.apply_ms.Quantile(0.50));
  EXPECT_GE(stats.queue_high_water, 1u);
  EXPECT_EQ(stats.queue_capacity, 1024u);
  // One publish at boot, then one per finished request, counters included:
  // a checkpoint request that fails still publishes its failure count.
  EXPECT_EQ(stats.snapshots_published, 2u);
  EXPECT_FALSE((*service)->Checkpoint().published);
  const ServiceStats after = (*service)->Stats();
  EXPECT_EQ(after.snapshots_published, 3u);
  EXPECT_EQ(after.checkpoint_failures, 1u);
  EXPECT_EQ(after.snapshot_version, 1u);
}

TEST(PlanningServiceTest, RebuildSwapsPlanAndSerializesWithOps) {
  auto service = PlanningService::Create(MakePaperInstance(), MakePaperPlan());
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Apply(AtomicOp::UpperBoundChange(kE4, 1)).applied);

  ShardedGepcOptions options;
  options.shards = 2;
  options.threads = 2;
  const RebuildOutcome outcome = (*service)->Rebuild(options);
  ASSERT_TRUE(outcome.rebuilt) << outcome.error;
  EXPECT_GT(outcome.total_utility, 0.0);

  // The swapped-in plan is what the snapshot serves, it respects the
  // mutated instance (eta(kE4) = 1), and equals a direct solve of the
  // same instance state.
  const auto snap = (*service)->snapshot();
  EXPECT_LE(snap->plan->attendance(kE4), 1);
  EXPECT_DOUBLE_EQ(snap->total_utility, outcome.total_utility);
  auto planner = IncrementalPlanner::Create(MakePaperInstance(),
                                            MakePaperPlan());
  ASSERT_TRUE(planner.ok());
  ASSERT_TRUE(planner->Apply(AtomicOp::UpperBoundChange(kE4, 1)).ok());
  auto direct = SolveSharded(planner->instance(), options);
  ASSERT_TRUE(direct.ok());
  EXPECT_TRUE(*snap->plan == direct->plan);

  // Ops keep applying after the swap.
  EXPECT_TRUE((*service)->Apply(AtomicOp::BudgetChange(0, 18.0)).applied);
}

TEST(PlanningServiceTest, RebuildIsNotJournaled) {
  const std::string journal_path = Tmp("rebuild_journal.gops");
  std::remove(journal_path.c_str());
  ServiceOptions options;
  options.journal_path = journal_path;
  auto service = PlanningService::Create(MakePaperInstance(), MakePaperPlan(),
                                         options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Apply(AtomicOp::BudgetChange(1, 9.5)).applied);
  ASSERT_TRUE((*service)->Rebuild().rebuilt);
  (*service)->Shutdown();

  auto replayed = LoadOpsFromFile(journal_path);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed->size(), 1u);  // only the budget op
}

TEST(PlanningServiceTest, RebuildAfterShutdownResolvesUnbuilt) {
  auto service = PlanningService::Create(MakePaperInstance(), MakePaperPlan());
  ASSERT_TRUE(service.ok());
  (*service)->Shutdown();
  const RebuildOutcome outcome = (*service)->Rebuild();
  EXPECT_FALSE(outcome.rebuilt);
  EXPECT_FALSE(outcome.error.empty());
}

}  // namespace
}  // namespace gepc
