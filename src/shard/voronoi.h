#ifndef GEPC_SHARD_VORONOI_H_
#define GEPC_SHARD_VORONOI_H_

#include <vector>

#include "core/instance.h"
#include "geom/point.h"
#include "shard/partition.h"
#include "spatial/reachability.h"

namespace gepc {

/// Tuning for the Lloyd iteration.
struct VoronoiOptions {
  /// Centroid-update rounds. 0 runs a single assignment pass against the
  /// seed sites with no update — the mode the FP-exactness tests (and
  /// assignment-only queries) use. The loop also stops early as soon as an
  /// assignment pass changes nothing (a Lloyd fixed point).
  int max_iterations = 25;
  /// Explicit seed sites. Used when the size equals the requested shard
  /// count; otherwise seeds come from the recursive-bisection cuts (the
  /// per-shard event centroids, farthest-user supplemented).
  std::vector<Point> seed_sites;
};

/// What one Lloyd run produced.
struct VoronoiResult {
  /// Final sites, size num_shards.
  std::vector<Point> sites;
  /// Site of each user (nearest final site, ties to the lower index).
  std::vector<int> user_site;
  /// Centroid-update rounds actually performed.
  int iterations = 0;
  /// Total within-cell squared distance after each assignment pass
  /// (size iterations + 1). Non-increasing — the classic Lloyd descent —
  /// which the property tests assert.
  std::vector<double> cost_history;
};

/// Index of the site nearest to `p` (squared distance, ties to the lower
/// index). `sites` must be non-empty. Shared by the partitioner and the
/// incremental migration path so both classify identically, bit for bit.
int NearestSite(const std::vector<Point>& sites, const Point& p);

/// Seeds for `num_shards` sites from the current recursive-bisection cuts:
/// shard s's seed is the centroid of its events; shards left empty by the
/// bisection are supplemented with the user location farthest from the
/// sites chosen so far (deterministic, lowest index on ties).
std::vector<Point> BisectionSeedSites(const Instance& instance,
                                      const ReachabilityFilter& filter,
                                      int num_shards);

/// Lloyd's algorithm over the user locations: assign each user to the
/// nearest site, move every site to the centroid of its cell, repeat.
/// Deterministic — iteration order is user/site index order and empty cells
/// keep their site. Within-cell variance is monotone non-increasing.
VoronoiResult LloydUserSites(const Instance& instance,
                             const ReachabilityFilter& filter, int num_shards,
                             const VoronoiOptions& options = {});

/// Cuts `instance` into centroidal-Voronoi shards: Lloyd sites over the
/// user density, events assigned to their nearest site, users classified
/// interior/boundary exactly like PartitionInstance. `result_out`
/// (optional) receives the Lloyd run (sites, assignment, cost history).
ShardPartition PartitionInstanceVoronoi(const Instance& instance,
                                        const ReachabilityFilter& filter,
                                        int num_shards,
                                        const VoronoiOptions& options = {},
                                        VoronoiResult* result_out = nullptr);

}  // namespace gepc

#endif  // GEPC_SHARD_VORONOI_H_
