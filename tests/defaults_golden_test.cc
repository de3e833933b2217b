// Byte-level pins of the outputs the synthetic-data and solver defaults
// feed: generated cities, friendship graphs and scheduling workloads, the
// simulator presets, the GAP-based solve under each LP engine, the sharded
// solve and the local-search refiner. The literals were taken from the
// code before those defaults became named constants; a change that is
// meant to keep every default must keep them.

#include <gtest/gtest.h>

#include <ios>
#include <sstream>
#include <string>

#include "ckpt/checkpoint.h"
#include "data/friendship.h"
#include "data/generator.h"
#include "gepc/local_search.h"
#include "gepc/solver.h"
#include "sched/schedule.h"
#include "service/torture.h"
#include "shard/sharded_solver.h"
#include "sim/scenarios.h"
#include "sim/simulator.h"

namespace gepc {
namespace {

uint64_t Checksum(const std::string& bytes) {
  return CheckpointChecksum(bytes.data(), bytes.size());
}

uint64_t StateChecksum(const Instance& instance, const Plan& plan) {
  auto state = SerializeServiceState(instance, plan, 0);
  EXPECT_TRUE(state.ok()) << state.status();
  return state.ok() ? Checksum(*state) : 0;
}

Instance MakeCity(int users, int events, uint64_t seed) {
  GeneratorConfig config;
  config.num_users = users;
  config.num_events = events;
  config.mean_eta = 8.0;
  config.mean_xi = 2.0;
  config.seed = seed;
  auto instance = GenerateInstance(config);
  EXPECT_TRUE(instance.ok()) << instance.status();
  return instance.ok() ? *instance : Instance();
}

TEST(DefaultsGoldenTest, GenerateInstance) {
  auto plain = GenerateInstance(GeneratorConfig{});
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(StateChecksum(*plain, Plan(plain->num_users(),
                                       plain->num_events())),
            11021976877130140391u);

  GeneratorConfig with_fees;
  with_fees.num_users = 80;
  with_fees.num_events = 16;
  with_fees.mean_fee = 6.0;
  with_fees.seed = 9;
  auto fees = GenerateInstance(with_fees);
  ASSERT_TRUE(fees.ok()) << fees.status();
  EXPECT_EQ(StateChecksum(*fees, Plan(fees->num_users(), fees->num_events())),
            3080504942621716043u);
}

TEST(DefaultsGoldenTest, GenerateFriendshipGraph) {
  const Instance city = MakeCity(120, 10, 5);
  const FriendshipGraph graph =
      GenerateFriendshipGraph(city.users(), FriendshipConfig{});
  std::ostringstream out;
  for (UserId u = 0; u < graph.num_users(); ++u) {
    for (UserId v : graph.friends_of(u)) out << u << ' ' << v << '\n';
  }
  EXPECT_EQ(graph.num_edges(), 240);
  EXPECT_EQ(Checksum(out.str()), 14985828180422873527u);
}

TEST(DefaultsGoldenTest, GenerateAndSolveSchedule) {
  ScheduleGenConfig config;
  config.num_users = 60;
  config.num_drafts = 3;
  config.seed = 11;
  const ScheduleProblem problem = GenerateScheduleProblem(config);
  std::ostringstream out;
  out << std::hexfloat;
  for (const User& u : problem.users) {
    out << u.location.x << ' ' << u.location.y << ' ' << u.budget << '\n';
  }
  for (const DraftEvent& d : problem.drafts) {
    out << d.lower_bound << ':';
    for (double mu : d.interest) out << ' ' << mu;
    for (const ScheduleCandidate& c : d.candidates) {
      out << " [" << c.slot.start << ' ' << c.slot.end << ' ' << c.venue.x
          << ' ' << c.venue.y << ' ' << c.capacity << ' ' << c.fee << ']';
    }
    out << '\n';
  }
  EXPECT_EQ(Checksum(out.str()), 13627605968212889034u);

  auto solved = SolveSchedule(problem);
  ASSERT_TRUE(solved.ok()) << solved.status();
  std::ostringstream choice;
  for (int c : solved->choice) choice << c << ' ';
  EXPECT_EQ(choice.str(), "0 1 2 ");
  EXPECT_EQ(solved->attendance, 35);
  EXPECT_EQ(StateChecksum(solved->instance, solved->plan), 916907084125848815u);
}

TEST(DefaultsGoldenTest, RunSimulationPresets) {
  const struct {
    ScenarioPreset preset;
    uint64_t checksum;
  } cases[] = {
      {ScenarioPreset::kScheduling, 5686304669441583707u},
      {ScenarioPreset::kAffinity, 14838011892169375257u},
      {ScenarioPreset::kMixed, 15225315360036146284u},
  };
  for (const auto& c : cases) {
    auto result = RunSimulation(MakeScenarioConfig(c.preset, 3));
    ASSERT_TRUE(result.ok()) << result.status();
    std::ostringstream out;
    out << std::hexfloat;
    for (const DayMetrics& day : result->days) {
      out << day.day << ' ' << day.ops << ' ' << day.total_utility << ' '
          << day.effective_utility << ' ' << day.events_below_lower_bound
          << ' ' << day.negative_impact << ' ' << day.affinity_utility
          << '\n';
    }
    EXPECT_EQ(Checksum(out.str()), c.checksum)
        << ScenarioPresetName(c.preset);
  }
}

TEST(DefaultsGoldenTest, GapBasedSolveUnderEachEngine) {
  const Instance city = MakeCity(40, 8, 21);
  const struct {
    GapLpEngine engine;
    uint64_t checksum;
  } cases[] = {
      {GapLpEngine::kSimplex, 8009414920535372911u},
      {GapLpEngine::kMwu, 5559112792746869807u},
      {GapLpEngine::kAuto, 8009414920535372911u},
  };
  for (const auto& c : cases) {
    GepcOptions options;
    options.algorithm = GepcAlgorithm::kGapBased;
    options.gap_based.gap.engine = c.engine;
    auto solved = SolveGepc(city, options);
    ASSERT_TRUE(solved.ok()) << solved.status();
    EXPECT_EQ(StateChecksum(city, solved->plan), c.checksum)
        << static_cast<int>(c.engine);
  }
}

TEST(DefaultsGoldenTest, SolveShardedFourShards) {
  const Instance city = MakeCity(200, 16, 33);
  ShardedGepcOptions options;
  options.shards = 4;
  auto solved = SolveSharded(city, options);
  ASSERT_TRUE(solved.ok()) << solved.status();
  EXPECT_EQ(StateChecksum(city, solved->plan), 7082396524879963282u);
}

TEST(DefaultsGoldenTest, RefineGreedyPlan) {
  const Instance city = MakeCity(80, 12, 44);
  auto greedy = SolveGepc(city);
  ASSERT_TRUE(greedy.ok()) << greedy.status();
  Plan plan = greedy->plan;
  auto stats = RefinePlan(city, &plan);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->add_moves + stats->replace_moves + stats->transfer_moves,
            13);
  EXPECT_EQ(StateChecksum(city, plan), 4605996616311656855u);
}

}  // namespace
}  // namespace gepc
