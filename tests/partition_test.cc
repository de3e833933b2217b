#include "shard/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "shard/voronoi.h"
#include "spatial/reachability.h"
#include "tests/local_instance.h"

namespace gepc {
namespace {

using testing_support::MakeLocalInstance;

TEST(PartitionTest, EventsPartitionedDisjointAndComplete) {
  const Instance instance = MakeLocalInstance(100, 40, 3);
  const ReachabilityFilter filter(instance);
  for (int k : {1, 2, 4, 7}) {
    const ShardPartition partition = PartitionInstance(instance, filter, k);
    EXPECT_EQ(partition.num_shards, k);
    std::vector<int> seen(static_cast<size_t>(instance.num_events()), 0);
    for (int s = 0; s < k; ++s) {
      for (EventId j : partition.shard_events[static_cast<size_t>(s)]) {
        EXPECT_EQ(partition.event_shard[static_cast<size_t>(j)], s);
        ++seen[static_cast<size_t>(j)];
      }
      EXPECT_TRUE(std::is_sorted(
          partition.shard_events[static_cast<size_t>(s)].begin(),
          partition.shard_events[static_cast<size_t>(s)].end()));
    }
    for (EventId j = 0; j < instance.num_events(); ++j) {
      EXPECT_EQ(seen[static_cast<size_t>(j)], 1) << "event " << j;
    }
  }
}

TEST(PartitionTest, UsersSplitIntoInteriorAndBoundaryExactly) {
  const Instance instance = MakeLocalInstance(120, 30, 5);
  const ReachabilityFilter filter(instance);
  const ShardPartition partition = PartitionInstance(instance, filter, 4);
  int classified = static_cast<int>(partition.boundary_users.size());
  for (int s = 0; s < partition.num_shards; ++s) {
    classified += static_cast<int>(
        partition.shard_users[static_cast<size_t>(s)].size());
  }
  EXPECT_EQ(classified, instance.num_users());
  for (UserId i : partition.boundary_users) {
    EXPECT_EQ(partition.user_shard[static_cast<size_t>(i)], kBoundaryUser);
  }
}

TEST(PartitionTest, InteriorUsersReachOnlyTheirHomeShard) {
  const Instance instance = MakeLocalInstance(150, 50, 7);
  const ReachabilityFilter filter(instance);
  const ShardPartition partition = PartitionInstance(instance, filter, 4);
  // The instance is local enough that the cut finds interior users at all.
  int interior = 0;
  for (UserId i = 0; i < instance.num_users(); ++i) {
    const int home = partition.user_shard[static_cast<size_t>(i)];
    if (home == kBoundaryUser) continue;
    ++interior;
    for (EventId j : filter.AttendableEvents(i)) {
      EXPECT_EQ(partition.event_shard[static_cast<size_t>(j)], home)
          << "interior user " << i << " reaches foreign event " << j;
    }
  }
  EXPECT_GT(interior, 0);
}

TEST(PartitionTest, DeterministicAcrossRepeatedRuns) {
  const Instance instance = MakeLocalInstance(80, 30, 11);
  const ReachabilityFilter filter(instance);
  const ShardPartition a = PartitionInstance(instance, filter, 4);
  const ShardPartition b = PartitionInstance(instance, filter, 4);
  EXPECT_EQ(a.event_shard, b.event_shard);
  EXPECT_EQ(a.user_shard, b.user_shard);
  EXPECT_EQ(a.boundary_users, b.boundary_users);
}

TEST(PartitionTest, SingleShardKeepsEveryoneInterior) {
  const Instance instance = MakeLocalInstance(40, 15, 13);
  const ReachabilityFilter filter(instance);
  const ShardPartition partition = PartitionInstance(instance, filter, 1);
  EXPECT_EQ(partition.num_shards, 1);
  for (EventId j = 0; j < instance.num_events(); ++j) {
    EXPECT_EQ(partition.event_shard[static_cast<size_t>(j)], 0);
  }
  // Users who can reach nothing are boundary by definition; everyone else
  // is interior to shard 0.
  for (UserId i = 0; i < instance.num_users(); ++i) {
    if (filter.AttendableEvents(i).empty()) {
      EXPECT_EQ(partition.user_shard[static_cast<size_t>(i)], kBoundaryUser);
    } else {
      EXPECT_EQ(partition.user_shard[static_cast<size_t>(i)], 0);
    }
  }
}

TEST(PartitionTest, MoreShardsThanOccupiedCellsLeavesSpareShardsEmpty) {
  // All events in one spot -> one occupied cell -> one real shard, the
  // rest legitimately empty.
  std::vector<User> users;
  for (int i = 0; i < 10; ++i) {
    users.push_back(User{Point{1.0 * i, 0.0}, /*budget=*/100.0});
  }
  std::vector<Event> events;
  for (int j = 0; j < 5; ++j) {
    Event event;
    event.location = Point{4.0, 4.0};
    event.time = Interval{j * 10, j * 10 + 5};
    event.upper_bound = 10;
    events.push_back(event);
  }
  Instance instance(std::move(users), std::move(events));
  const ReachabilityFilter filter(instance);
  const ShardPartition partition = PartitionInstance(instance, filter, 4);
  int non_empty = 0;
  for (const auto& shard : partition.shard_events) {
    if (!shard.empty()) ++non_empty;
  }
  EXPECT_EQ(non_empty, 1);
  size_t total = 0;
  for (const auto& shard : partition.shard_events) total += shard.size();
  EXPECT_EQ(total, 5u);
}

// ---------------------------------------------------------------------------
// Degenerate inputs, for BOTH partitioners: the bisection cut and the
// centroidal-Voronoi cut must survive pathological geometry without
// crashing and still emit a structurally valid partition.

/// The two partitioners: the bisection cut SolveSharded uses and the
/// centroidal-Voronoi cut the shard tracker uses.
enum class Cut { kBisection, kVoronoi };

/// Runs `instance` through one partitioner and checks the structural
/// contract: every event in exactly one shard, every user classified
/// exactly once, all ids in range.
void CheckPartitionStructure(const Instance& instance, int num_shards,
                             Cut cut) {
  const ReachabilityFilter filter(instance);
  const ShardPartition partition =
      cut == Cut::kVoronoi
          ? PartitionInstanceVoronoi(instance, filter, num_shards)
          : PartitionInstance(instance, filter, num_shards);
  ASSERT_EQ(partition.num_shards, std::max(1, num_shards));
  ASSERT_EQ(partition.event_shard.size(),
            static_cast<size_t>(instance.num_events()));
  ASSERT_EQ(partition.user_shard.size(),
            static_cast<size_t>(instance.num_users()));
  std::vector<int> seen(static_cast<size_t>(instance.num_events()), 0);
  for (int s = 0; s < partition.num_shards; ++s) {
    for (EventId j : partition.shard_events[static_cast<size_t>(s)]) {
      ASSERT_GE(j, 0);
      ASSERT_LT(j, instance.num_events());
      EXPECT_EQ(partition.event_shard[static_cast<size_t>(j)], s);
      ++seen[static_cast<size_t>(j)];
    }
  }
  for (EventId j = 0; j < instance.num_events(); ++j) {
    EXPECT_EQ(seen[static_cast<size_t>(j)], 1) << "event " << j;
  }
  size_t classified = partition.boundary_users.size();
  for (int s = 0; s < partition.num_shards; ++s) {
    classified += partition.shard_users[static_cast<size_t>(s)].size();
  }
  EXPECT_EQ(classified, static_cast<size_t>(instance.num_users()));
}

Instance MakeCoincidentUserInstance(int users) {
  std::vector<User> all_users;
  for (int i = 0; i < users; ++i) {
    all_users.push_back(User{Point{2.5, 2.5}, /*budget=*/50.0});
  }
  std::vector<Event> events;
  for (int j = 0; j < 6; ++j) {
    Event event;
    event.location = Point{1.0 * j, 1.0};
    event.time = Interval{j * 10, j * 10 + 5};
    event.upper_bound = users;
    events.push_back(event);
  }
  return Instance(std::move(all_users), std::move(events));
}

TEST(PartitionDegenerateTest, AllUsersAtOnePointSurvivesBothPartitioners) {
  // Every Lloyd cell but one is empty and every bisection split is forced
  // to one side; both must still cut the events cleanly.
  const Instance instance = MakeCoincidentUserInstance(30);
  for (const Cut cut : {Cut::kBisection, Cut::kVoronoi}) {
    for (const int k : {1, 2, 4}) {
      CheckPartitionStructure(instance, k, cut);
    }
  }
}

TEST(PartitionDegenerateTest, FewerUsersThanShardsSurvivesBothPartitioners) {
  std::vector<User> users = {User{Point{0.0, 0.0}, 10.0},
                             User{Point{9.0, 9.0}, 10.0}};
  std::vector<Event> events;
  for (int j = 0; j < 4; ++j) {
    Event event;
    event.location = Point{3.0 * j, 3.0 * j};
    event.time = Interval{j * 10, j * 10 + 5};
    event.upper_bound = 2;
    events.push_back(event);
  }
  const Instance instance(std::move(users), std::move(events));
  for (const Cut cut : {Cut::kBisection, Cut::kVoronoi}) {
    CheckPartitionStructure(instance, 5, cut);
  }
}

TEST(PartitionDegenerateTest, EmptyInstanceSurvivesBothPartitioners) {
  const Instance instance;
  for (const Cut cut : {Cut::kBisection, Cut::kVoronoi}) {
    for (const int k : {1, 3}) {
      CheckPartitionStructure(instance, k, cut);
    }
  }
}

TEST(PartitionDegenerateTest, VoronoiMatchesBisectionClassificationContract) {
  // Same classification pass behind both cuts: given identical event
  // shards, users classify identically. Force that by feeding Voronoi the
  // degenerate one-site case, where every event lands in shard 0 — exactly
  // the k=1 bisection cut.
  const Instance instance = MakeCoincidentUserInstance(12);
  const ReachabilityFilter filter(instance);
  const ShardPartition bisection = PartitionInstance(instance, filter, 1);
  const ShardPartition voronoi =
      PartitionInstanceVoronoi(instance, filter, 1);
  EXPECT_EQ(bisection, voronoi);
}

}  // namespace
}  // namespace gepc
