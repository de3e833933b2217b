// Acceptance anchor for the journaled service: a randomized 1k-op stream
// pushed through a live PlanningService must be exactly reconstructible by
// replaying its journal into a fresh planner — same plan, same total
// utility, same per-user assignments. This is what makes the journal a
// crash-recovery mechanism rather than a log.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/generator.h"
#include "gepc/solver.h"
#include "service/journal.h"
#include "service/planning_service.h"
#include "service/torture.h"

namespace gepc {
namespace {

AtomicOp RandomOp(const Instance& instance, Rng* rng) {
  const int num_users = instance.num_users();
  const int num_events = instance.num_events();
  const int user = static_cast<int>(rng->UniformUint64(num_users));
  const int event = static_cast<int>(rng->UniformUint64(num_events));
  switch (rng->UniformUint64(6)) {
    case 0: {
      // Mostly valid eta changes; sometimes below current attendance or on
      // a bogus event so the rejected path is exercised too.
      const int eta = static_cast<int>(rng->UniformUint64(12));
      const int target =
          rng->Bernoulli(0.05) ? num_events + 3 : event;  // 5% invalid id
      return AtomicOp::UpperBoundChange(target, eta);
    }
    case 1:
      return AtomicOp::LowerBoundChange(event,
                                        static_cast<int>(rng->UniformUint64(6)));
    case 2: {
      const int start = static_cast<int>(rng->UniformUint64(20)) * 60;
      const int duration = 30 + static_cast<int>(rng->UniformUint64(4)) * 30;
      return AtomicOp::TimeChange(event, {start, start + duration});
    }
    case 3:
      return AtomicOp::LocationChange(
          event, {rng->UniformDouble(0.0, 100.0),
                  rng->UniformDouble(0.0, 100.0)});
    case 4:
      return AtomicOp::BudgetChange(user, rng->UniformDouble(10.0, 160.0));
    default:
      return AtomicOp::UtilityChange(user, event,
                                     rng->Bernoulli(0.2)
                                         ? 0.0
                                         : rng->UniformDouble(0.0, 1.0));
  }
}

TEST(ServiceDeterminismTest, ThousandOpJournalReplaysToIdenticalState) {
  GeneratorConfig config;
  config.num_users = 60;
  config.num_events = 12;
  config.mean_xi = 2;
  config.mean_eta = 8;
  config.seed = 20260806;
  auto instance = GenerateInstance(config);
  ASSERT_TRUE(instance.ok()) << instance.status();
  auto solved = SolveGepc(*instance, GepcOptions{});
  ASSERT_TRUE(solved.ok()) << solved.status();
  const Instance base_instance = *instance;
  const Plan base_plan = solved->plan;

  const std::string journal_path =
      ::testing::TempDir() + "/determinism_1k.gops";
  std::remove(journal_path.c_str());

  ServiceOptions options;
  options.journal_path = journal_path;
  auto service = PlanningService::Create(*std::move(instance),
                                         std::move(solved->plan), options);
  ASSERT_TRUE(service.ok()) << service.status();

  Rng rng(7);
  uint64_t applied = 0;
  uint64_t rejected = 0;
  for (int i = 0; i < 1000; ++i) {
    const ApplyOutcome outcome =
        (*service)->Apply(RandomOp(base_instance, &rng));
    outcome.applied ? ++applied : ++rejected;
  }
  (*service)->Drain();
  const auto live = (*service)->snapshot();
  ASSERT_EQ(live->version, 1000u);
  (*service)->Shutdown();
  EXPECT_GT(rejected, 0u) << "stream should exercise the rejected path";
  EXPECT_GT(applied, 800u);

  auto replay = ReplayJournal(base_instance, base_plan, journal_path);
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->ops_applied, applied);
  EXPECT_EQ(replay->ops_rejected, rejected);

  // Exact state reconstruction: plan, utility, per-user assignments.
  EXPECT_TRUE(replay->plan == *live->plan);
  EXPECT_DOUBLE_EQ(replay->total_utility, live->total_utility);
  for (int user = 0; user < base_instance.num_users(); ++user) {
    std::vector<EventId> from_replay = replay->plan.events_of(user);
    std::vector<EventId> from_live = live->plan->events_of(user);
    std::sort(from_replay.begin(), from_replay.end());
    std::sort(from_live.begin(), from_live.end());
    EXPECT_EQ(from_replay, from_live) << "user " << user;
  }

  // And a recovered *service* lands in the same state too.
  auto recovered =
      PlanningService::Recover(base_instance, base_plan, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ((*recovered)->snapshot()->version, 1000u);
  EXPECT_TRUE(*(*recovered)->snapshot()->plan == *live->plan);
  EXPECT_DOUBLE_EQ((*recovered)->snapshot()->total_utility,
                   live->total_utility);
}

// Snapshots share the utility matrix and the conflict graph with the
// writer's live instance. Hold the snapshot of every version of the 1k-op
// stream: no later write may reach any of them.
TEST(ServiceDeterminismTest, HeldSnapshotsNeverChange) {
  GeneratorConfig config;
  config.num_users = 60;
  config.num_events = 12;
  config.mean_xi = 2;
  config.mean_eta = 8;
  config.seed = 20260806;
  auto instance = GenerateInstance(config);
  ASSERT_TRUE(instance.ok()) << instance.status();
  auto solved = SolveGepc(*instance, GepcOptions{});
  ASSERT_TRUE(solved.ok()) << solved.status();
  const Instance base_instance = *instance;
  auto service =
      PlanningService::Create(*std::move(instance), std::move(solved->plan));
  ASSERT_TRUE(service.ok()) << service.status();

  const auto serialize = [](const ServiceSnapshot& snapshot) {
    auto state = SerializeServiceState(*snapshot.instance, *snapshot.plan,
                                       snapshot.version);
    EXPECT_TRUE(state.ok()) << state.status();
    std::string bytes = state.ok() ? *state : std::string();
    const Instance& held = *snapshot.instance;
    for (int a = 0; a < held.num_events(); ++a) {
      for (int b = 0; b < held.num_events(); ++b) {
        bytes += held.EventsConflict(a, b) ? '1' : '0';
      }
    }
    return bytes;
  };
  std::vector<std::shared_ptr<const ServiceSnapshot>> held;
  std::vector<std::string> taken;
  held.push_back((*service)->snapshot());
  taken.push_back(serialize(*held.back()));
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    (*service)->Apply(RandomOp(base_instance, &rng));
    held.push_back((*service)->snapshot());
    ASSERT_EQ(held.back()->version, static_cast<uint64_t>(i + 1));
    taken.push_back(serialize(*held.back()));
  }
  (*service)->Shutdown();
  for (size_t v = 0; v < held.size(); ++v) {
    // ASSERT_TRUE, not ASSERT_EQ: the states are too long to print.
    ASSERT_TRUE(serialize(*held[v]) == taken[v]) << "snapshot version " << v;
  }
}

}  // namespace
}  // namespace gepc
