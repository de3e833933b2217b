// Metamorphic properties of the GEPC solvers: transformations of an
// instance that provably cannot change the optimum must not change the
// solver's answer either.
//
//   * Isometries of the plane (rotation by 90 degrees, axis reflection,
//     translation) leave every pairwise distance — and therefore every
//     budget-feasibility decision — untouched, while utilities live in an
//     explicit n x m matrix that never looks at coordinates. The chosen
//     transforms are FP-*exact*: (x,y) -> (-y,x) and (x,y) -> (y,x) only
//     negate/swap coordinates (squares and the commutative sum in
//     Distance() are bit-identical), and translation is applied to
//     coordinates snapped to a power-of-two grid so the additions never
//     round. The solver must return the *same plan*, not merely an equally
//     good one.
//
//   * Relabelling users/events (a permutation) cannot change what is
//     achievable; a solved plan mapped through the permutation must stay
//     feasible on the relabelled instance with the same total utility. (We
//     deliberately do NOT re-solve: the greedy/regret solvers iterate in
//     index order, so relabelling may find a different — equally valid —
//     local optimum.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "core/feasibility.h"
#include "core/instance.h"
#include "core/plan.h"
#include "data/generator.h"
#include "gepc/solver.h"
#include "shard/sharded_solver.h"
#include "shard/voronoi.h"
#include "spatial/reachability.h"

namespace gepc {
namespace {

/// Snaps a coordinate to the 2^-10 grid so that later translations by grid
/// multiples are exact in double arithmetic (all values and sums stay far
/// below 2^53 ulp-loss territory).
double Snap(double v) { return std::round(v * 1024.0) / 1024.0; }

Instance MakeSnappedInstance(uint64_t seed, int users = 70, int events = 20) {
  GeneratorConfig config;
  config.num_users = users;
  config.num_events = events;
  config.seed = seed;
  auto generated = GenerateInstance(config);
  EXPECT_TRUE(generated.ok()) << generated.status();

  std::vector<User> snapped_users = generated->users();
  for (User& user : snapped_users) {
    user.location = {Snap(user.location.x), Snap(user.location.y)};
  }
  std::vector<Event> snapped_events = generated->events();
  for (Event& event : snapped_events) {
    event.location = {Snap(event.location.x), Snap(event.location.y)};
  }
  Instance instance(std::move(snapped_users), std::move(snapped_events));
  for (int i = 0; i < instance.num_users(); ++i) {
    for (int j = 0; j < instance.num_events(); ++j) {
      instance.set_utility(i, j, generated->utility(i, j));
    }
  }
  return instance;
}

/// Rebuilds `base` with every location mapped through `point_fn`.
template <typename PointFn>
Instance TransformLocations(const Instance& base, PointFn point_fn) {
  std::vector<User> users = base.users();
  for (User& user : users) user.location = point_fn(user.location);
  std::vector<Event> events = base.events();
  for (Event& event : events) event.location = point_fn(event.location);
  Instance instance(std::move(users), std::move(events));
  for (int i = 0; i < base.num_users(); ++i) {
    for (int j = 0; j < base.num_events(); ++j) {
      instance.set_utility(i, j, base.utility(i, j));
    }
  }
  return instance;
}

void ExpectSameSolve(const Instance& base, const Instance& transformed) {
  auto base_result = SolveGepc(base, GepcOptions{});
  auto transformed_result = SolveGepc(transformed, GepcOptions{});
  ASSERT_TRUE(base_result.ok()) << base_result.status();
  ASSERT_TRUE(transformed_result.ok()) << transformed_result.status();
  EXPECT_DOUBLE_EQ(base_result->total_utility,
                   transformed_result->total_utility);
  EXPECT_TRUE(base_result->plan == transformed_result->plan);
  ValidationOptions lenient;
  lenient.check_lower_bounds = false;
  EXPECT_TRUE(
      ValidatePlan(transformed, transformed_result->plan, lenient).ok());
}

TEST(MetamorphicTest, QuarterTurnRotationIsInvariant) {
  for (uint64_t seed : {2u, 11u, 23u}) {
    const Instance base = MakeSnappedInstance(seed);
    const Instance rotated = TransformLocations(
        base, [](const Point& p) { return Point{-p.y, p.x}; });
    ExpectSameSolve(base, rotated);
  }
}

TEST(MetamorphicTest, DiagonalReflectionIsInvariant) {
  for (uint64_t seed : {3u, 17u}) {
    const Instance base = MakeSnappedInstance(seed);
    const Instance reflected = TransformLocations(
        base, [](const Point& p) { return Point{p.y, p.x}; });
    ExpectSameSolve(base, reflected);
  }
}

TEST(MetamorphicTest, GridTranslationIsInvariant) {
  for (uint64_t seed : {5u, 29u}) {
    const Instance base = MakeSnappedInstance(seed);
    // Offsets are multiples of the snap grid, so x + dx never rounds.
    const double dx = 512.0 + 1.0 / 1024.0 * 37.0;
    const double dy = -256.0 + 1.0 / 1024.0 * 5.0;
    const Instance translated = TransformLocations(
        base, [dx, dy](const Point& p) { return Point{p.x + dx, p.y + dy}; });
    ExpectSameSolve(base, translated);
  }
}

TEST(MetamorphicTest, ShardedSolverTranslationIsInvariant) {
  // Translation also preserves the spatial bisection used by the sharded
  // partitioner (relative order and exact midpoints are unchanged on the
  // snap grid), so even the partition/solve/merge pipeline must agree
  // bit-for-bit. Rotations would change the widest-axis choice, so they are
  // deliberately NOT tested through SolveSharded.
  const Instance base = MakeSnappedInstance(13, /*users=*/120, /*events=*/30);
  const Instance translated = TransformLocations(
      base, [](const Point& p) { return Point{p.x + 128.0, p.y + 64.0}; });

  ShardedGepcOptions options;
  options.shards = 4;
  options.threads = 2;
  auto base_result = SolveSharded(base, options);
  auto translated_result = SolveSharded(translated, options);
  ASSERT_TRUE(base_result.ok()) << base_result.status();
  ASSERT_TRUE(translated_result.ok()) << translated_result.status();
  EXPECT_DOUBLE_EQ(base_result->total_utility,
                   translated_result->total_utility);
  EXPECT_TRUE(base_result->plan == translated_result->plan);
}

// ---------------------------------------------------------------------------
// Centroidal-Voronoi metamorphics. Rotation (x,y) -> (-y,x) and reflection
// (x,y) -> (y,x) are FP-exact through the FULL Lloyd iteration: squared
// distances only square/sum the same magnitudes, and cell centroids commute
// with negate/swap bit-for-bit (IEEE negation is exact and rounding is
// sign-symmetric). Translation does NOT commute with the centroid division
// — (sum + n*dx)/n and sum/n + dx may round differently — so translation is
// pinned at the assignment level only (max_iterations = 0), matching the
// file's snap-grid contract. Seeds are passed explicitly (transformed
// alongside the instance) because the bisection seeding is axis-dependent.

std::vector<Point> PickSeedSites(const Instance& instance, int count) {
  std::vector<Point> sites;
  for (int s = 0; s < count; ++s) {
    sites.push_back(
        instance.user((s * 17) % instance.num_users()).location);
  }
  return sites;
}

template <typename PointFn>
std::vector<Point> TransformSites(const std::vector<Point>& sites,
                                  PointFn point_fn) {
  std::vector<Point> out;
  for (const Point& p : sites) out.push_back(point_fn(p));
  return out;
}

template <typename PointFn>
void ExpectLloydExactlyEquivariant(const Instance& base, PointFn point_fn,
                                   int max_iterations) {
  const Instance transformed = TransformLocations(base, point_fn);
  const ReachabilityFilter base_filter(base);
  const ReachabilityFilter transformed_filter(transformed);
  VoronoiOptions base_options;
  base_options.max_iterations = max_iterations;
  base_options.seed_sites = PickSeedSites(base, 3);
  VoronoiOptions transformed_options;
  transformed_options.max_iterations = max_iterations;
  transformed_options.seed_sites =
      TransformSites(base_options.seed_sites, point_fn);

  const VoronoiResult a =
      LloydUserSites(base, base_filter, 3, base_options);
  const VoronoiResult b =
      LloydUserSites(transformed, transformed_filter, 3,
                     transformed_options);
  EXPECT_EQ(a.user_site, b.user_site);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.cost_history, b.cost_history);
  ASSERT_EQ(a.sites.size(), b.sites.size());
  for (size_t s = 0; s < a.sites.size(); ++s) {
    const Point mapped = point_fn(a.sites[s]);
    EXPECT_EQ(mapped.x, b.sites[s].x) << "site " << s;
    EXPECT_EQ(mapped.y, b.sites[s].y) << "site " << s;
  }

  // The partition built on those sites matches index-for-index too.
  const ShardPartition pa = PartitionInstanceVoronoi(
      base, base_filter, 3, base_options);
  const ShardPartition pb = PartitionInstanceVoronoi(
      transformed, transformed_filter, 3, transformed_options);
  EXPECT_EQ(pa, pb);
}

TEST(MetamorphicTest, VoronoiQuarterTurnIsExactThroughFullLloyd) {
  for (uint64_t seed : {4u, 21u}) {
    const Instance base = MakeSnappedInstance(seed, /*users=*/100,
                                              /*events=*/24);
    ExpectLloydExactlyEquivariant(
        base, [](const Point& p) { return Point{-p.y, p.x}; },
        /*max_iterations=*/25);
  }
}

TEST(MetamorphicTest, VoronoiDiagonalReflectionIsExactThroughFullLloyd) {
  for (uint64_t seed : {6u, 27u}) {
    const Instance base = MakeSnappedInstance(seed, /*users=*/100,
                                              /*events=*/24);
    ExpectLloydExactlyEquivariant(
        base, [](const Point& p) { return Point{p.y, p.x}; },
        /*max_iterations=*/25);
  }
}

TEST(MetamorphicTest, VoronoiGridTranslationIsExactAtAssignmentLevel) {
  for (uint64_t seed : {8u, 31u}) {
    const Instance base = MakeSnappedInstance(seed, /*users=*/100,
                                              /*events=*/24);
    // Offsets are multiples of the snap grid, so every coordinate and
    // coordinate difference stays exact; only the centroid division
    // (skipped at max_iterations = 0) would break the exactness.
    const double dx = 256.0 + 1.0 / 1024.0 * 11.0;
    const double dy = -128.0 + 1.0 / 1024.0 * 3.0;
    ExpectLloydExactlyEquivariant(
        base,
        [dx, dy](const Point& p) { return Point{p.x + dx, p.y + dy}; },
        /*max_iterations=*/0);
  }
}

TEST(MetamorphicTest, PermutationMapsSolutionToSolution) {
  for (uint64_t seed : {7u, 19u}) {
    const Instance base = MakeSnappedInstance(seed);
    auto solved = SolveGepc(base, GepcOptions{});
    ASSERT_TRUE(solved.ok()) << solved.status();

    // Deterministic shuffles of both index spaces.
    Rng rng(seed * 1000 + 1);
    std::vector<int> user_map(base.num_users());
    std::iota(user_map.begin(), user_map.end(), 0);
    for (size_t k = user_map.size(); k > 1; --k) {
      std::swap(user_map[k - 1], user_map[rng.UniformUint64(k)]);
    }
    std::vector<int> event_map(base.num_events());
    std::iota(event_map.begin(), event_map.end(), 0);
    for (size_t k = event_map.size(); k > 1; --k) {
      std::swap(event_map[k - 1], event_map[rng.UniformUint64(k)]);
    }

    // Relabelled instance: user i becomes user_map[i], event j event_map[j].
    std::vector<User> users(base.num_users());
    for (int i = 0; i < base.num_users(); ++i) {
      users[static_cast<size_t>(user_map[i])] = base.user(i);
    }
    std::vector<Event> events(base.num_events());
    for (int j = 0; j < base.num_events(); ++j) {
      events[static_cast<size_t>(event_map[j])] = base.event(j);
    }
    Instance permuted(std::move(users), std::move(events));
    for (int i = 0; i < base.num_users(); ++i) {
      for (int j = 0; j < base.num_events(); ++j) {
        permuted.set_utility(user_map[i], event_map[j], base.utility(i, j));
      }
    }

    // Map the solved plan through the permutation; it must remain feasible
    // on the relabelled instance with the same utility (summation order
    // differs, hence the tolerance).
    Plan mapped(base.num_users(), base.num_events());
    for (int i = 0; i < base.num_users(); ++i) {
      for (const EventId j : solved->plan.events_of(i)) {
        mapped.Add(user_map[i], event_map[j]);
      }
    }
    ValidationOptions lenient;
    lenient.check_lower_bounds = false;
    EXPECT_TRUE(ValidatePlan(permuted, mapped, lenient).ok());
    EXPECT_NEAR(mapped.TotalUtility(permuted), solved->total_utility, 1e-9);
    EXPECT_EQ(mapped.TotalAssignments(), solved->plan.TotalAssignments());
  }
}

}  // namespace
}  // namespace gepc
