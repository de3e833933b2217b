// Property tests for the centroidal-Voronoi partitioner (src/shard/voronoi):
// Lloyd's iteration must be deterministic under a seed, assign every user to
// exactly one site, and descend monotonically in within-cell variance — the
// three properties the online rebalancer's correctness argument leans on.

#include "shard/voronoi.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "geom/point.h"
#include "spatial/reachability.h"
#include "tests/local_instance.h"

namespace gepc {
namespace {

using testing_support::MakeLocalInstance;

TEST(VoronoiTest, NearestSiteBreaksTiesTowardLowerIndex) {
  const std::vector<Point> sites = {{-1.0, 0.0}, {1.0, 0.0}, {-1.0, 0.0}};
  // The origin is equidistant from sites 0 and 1; the duplicate site 2 ties
  // site 0 exactly. Strict `<` keeps the first winner.
  EXPECT_EQ(NearestSite(sites, {0.0, 0.0}), 0);
  EXPECT_EQ(NearestSite(sites, {0.9, 0.0}), 1);
  EXPECT_EQ(NearestSite(sites, {-2.0, 0.0}), 0);
}

TEST(VoronoiTest, DeterministicUnderSeed) {
  for (const uint64_t seed : {11u, 22u, 33u}) {
    const Instance instance = MakeLocalInstance(120, 24, seed);
    const ReachabilityFilter filter(instance);
    const VoronoiResult a = LloydUserSites(instance, filter, 4);
    const VoronoiResult b = LloydUserSites(instance, filter, 4);
    // Bit-identical, not approximately equal: the incremental migration
    // path re-derives classifications from the sites, so any wobble here
    // would diverge tracker and rebuild.
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.user_site, b.user_site);
    EXPECT_EQ(a.cost_history, b.cost_history);
    ASSERT_EQ(a.sites.size(), b.sites.size());
    for (size_t s = 0; s < a.sites.size(); ++s) {
      EXPECT_EQ(a.sites[s].x, b.sites[s].x) << "site " << s;
      EXPECT_EQ(a.sites[s].y, b.sites[s].y) << "site " << s;
    }
  }
}

TEST(VoronoiTest, EveryUserAssignedToExactlyOneValidSite) {
  const Instance instance = MakeLocalInstance(150, 30, 5);
  const ReachabilityFilter filter(instance);
  for (const int k : {1, 2, 4, 7}) {
    const VoronoiResult result = LloydUserSites(instance, filter, k);
    ASSERT_EQ(result.sites.size(), static_cast<size_t>(k));
    ASSERT_EQ(result.user_site.size(),
              static_cast<size_t>(instance.num_users()));
    for (UserId i = 0; i < instance.num_users(); ++i) {
      const int site = result.user_site[static_cast<size_t>(i)];
      ASSERT_GE(site, 0) << "user " << i;
      ASSERT_LT(site, k) << "user " << i;
      // The assignment is exactly NearestSite of the final sites — the
      // same classifier the tracker uses between rebalances.
      EXPECT_EQ(site, NearestSite(result.sites,
                                  instance.user(i).location))
          << "user " << i;
    }
  }
}

TEST(VoronoiTest, CostHistoryIsMonotoneNonIncreasing) {
  for (const uint64_t seed : {7u, 13u, 29u}) {
    const Instance instance = MakeLocalInstance(180, 36, seed);
    const ReachabilityFilter filter(instance);
    const VoronoiResult result = LloydUserSites(instance, filter, 5);
    ASSERT_EQ(result.cost_history.size(),
              static_cast<size_t>(result.iterations) + 1);
    for (size_t t = 1; t < result.cost_history.size(); ++t) {
      EXPECT_LE(result.cost_history[t], result.cost_history[t - 1])
          << "seed " << seed << " pass " << t;
    }
  }
}

TEST(VoronoiTest, ConvergesBeforeTheIterationCapOnLocalInstances) {
  const Instance instance = MakeLocalInstance(140, 28, 17);
  const ReachabilityFilter filter(instance);
  VoronoiOptions options;
  options.max_iterations = 1000;
  const VoronoiResult result = LloydUserSites(instance, filter, 4, options);
  // The early-stop fires at the fixed point (an assignment pass that moves
  // nobody), far short of the cap.
  EXPECT_LT(result.iterations, options.max_iterations);
  // Re-running from the converged sites changes nothing.
  VoronoiOptions warm;
  warm.seed_sites = result.sites;
  warm.max_iterations = 5;
  const VoronoiResult again = LloydUserSites(instance, filter, 4, warm);
  EXPECT_EQ(again.user_site, result.user_site);
}

TEST(VoronoiTest, ZeroIterationsIsAPureAssignmentAgainstSeeds) {
  const Instance instance = MakeLocalInstance(90, 18, 3);
  const ReachabilityFilter filter(instance);
  VoronoiOptions options;
  options.max_iterations = 0;
  options.seed_sites = {{0.25, 0.25}, {0.75, 0.75}};
  const VoronoiResult result = LloydUserSites(instance, filter, 2, options);
  EXPECT_EQ(result.iterations, 0);
  ASSERT_EQ(result.cost_history.size(), 1u);
  // Sites are the seeds, untouched, and the assignment is NearestSite.
  ASSERT_EQ(result.sites.size(), 2u);
  EXPECT_EQ(result.sites[0].x, 0.25);
  EXPECT_EQ(result.sites[1].y, 0.75);
  for (UserId i = 0; i < instance.num_users(); ++i) {
    EXPECT_EQ(result.user_site[static_cast<size_t>(i)],
              NearestSite(options.seed_sites, instance.user(i).location));
  }
}

TEST(VoronoiTest, MismatchedSeedSitesFallBackToBisectionSeeds) {
  const Instance instance = MakeLocalInstance(100, 20, 9);
  const ReachabilityFilter filter(instance);
  VoronoiOptions wrong_size;
  wrong_size.seed_sites = {{0.5, 0.5}};  // one seed for three shards
  const VoronoiResult fallback =
      LloydUserSites(instance, filter, 3, wrong_size);
  const VoronoiResult reference = LloydUserSites(instance, filter, 3);
  EXPECT_EQ(fallback.user_site, reference.user_site);
  EXPECT_EQ(fallback.cost_history, reference.cost_history);
}

TEST(VoronoiTest, BisectionSeedsProduceOneSitePerShard) {
  const Instance instance = MakeLocalInstance(110, 22, 21);
  const ReachabilityFilter filter(instance);
  for (const int k : {1, 2, 4, 8}) {
    EXPECT_EQ(BisectionSeedSites(instance, filter, k).size(),
              static_cast<size_t>(k));
  }
}

TEST(VoronoiTest, PartitionCoversEveryEventOnceAndKeepsInteriorLocal) {
  const Instance instance = MakeLocalInstance(150, 40, 31);
  const ReachabilityFilter filter(instance);
  for (const int k : {2, 4, 7}) {
    VoronoiResult lloyd;
    const ShardPartition partition =
        PartitionInstanceVoronoi(instance, filter, k, {}, &lloyd);
    EXPECT_EQ(partition.num_shards, k);
    std::vector<int> seen(static_cast<size_t>(instance.num_events()), 0);
    for (int s = 0; s < k; ++s) {
      for (EventId j : partition.shard_events[static_cast<size_t>(s)]) {
        EXPECT_EQ(partition.event_shard[static_cast<size_t>(j)], s);
        ++seen[static_cast<size_t>(j)];
      }
    }
    for (EventId j = 0; j < instance.num_events(); ++j) {
      EXPECT_EQ(seen[static_cast<size_t>(j)], 1) << "event " << j;
      // Events classify by the same sites the users did.
      EXPECT_EQ(partition.event_shard[static_cast<size_t>(j)],
                NearestSite(lloyd.sites, instance.event(j).location));
    }
    // Interior users reach only their home shard — the same contract
    // PartitionInstance honors, via the shared classification pass.
    for (UserId i = 0; i < instance.num_users(); ++i) {
      const int home = partition.user_shard[static_cast<size_t>(i)];
      if (home == kBoundaryUser) continue;
      for (EventId j : filter.AttendableEvents(i)) {
        EXPECT_EQ(partition.event_shard[static_cast<size_t>(j)], home)
            << "interior user " << i << " reaches foreign event " << j;
      }
    }
  }
}

}  // namespace
}  // namespace gepc
