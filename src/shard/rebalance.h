#ifndef GEPC_SHARD_REBALANCE_H_
#define GEPC_SHARD_REBALANCE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/instance.h"
#include "geom/point.h"
#include "iep/planner.h"
#include "shard/partition.h"
#include "shard/voronoi.h"

namespace gepc {

/// What one ShardTracker::Rebalance call did.
struct RebalanceReport {
  /// Lloyd centroid-update rounds the warm-started run performed.
  int iterations = 0;
  /// Within-cell squared-distance cost at the first / last assignment pass.
  double cost_initial = 0.0;
  double cost_final = 0.0;
  /// Events whose shard changed relative to the previous partition.
  int events_moved = 0;
  /// Users whose interior/boundary classification or shard changed.
  int users_moved = 0;
  /// Load skew (ShardTracker::Skew) at the moment the rebalance ran.
  double skew_before = 0.0;
  /// Structural interior-user skew (max/mean shard population) after.
  double skew_after = 0.0;
};

/// Cumulative migration/rebalance accounting, for stats and tests.
struct ShardTrackerStats {
  uint64_t migrations = 0;         ///< ApplyMigration calls that changed state
  uint64_t events_moved = 0;       ///< events re-homed by migrations
  uint64_t users_reclassified = 0; ///< user classification changes (migrations)
  uint64_t full_rebuilds = 0;      ///< migrations degraded to a full rebuild
  uint64_t rebalances = 0;         ///< successful Rebalance calls
};

/// Maintains a live centroidal-Voronoi shard partition of a drifting
/// instance: per-op routing, per-shard load accounting with skew detection,
/// incremental boundary-user migration as IEP ops land, and warm-started
/// Lloyd rebalancing — all without re-running the full partitioner on every
/// op.
///
/// The governing invariant, enforced by churn_torture_test at every op
/// index: the incrementally maintained partition() always equals
/// RebuildFromSites(instance), a from-scratch reclassification against the
/// current sites. Migration therefore never changes *what* the partition is,
/// only how cheaply it is kept current.
///
/// The tracker deliberately holds no reference into the instance (service
/// rebuilds swap the planner, moving the instance); every method takes the
/// current instance as a parameter. Callers must pass instances that evolve
/// by exactly the AtomicOps handed to ApplyMigration. Not thread-safe: the
/// service confines it to the writer thread.
class ShardTracker {
 public:
  /// Cuts `instance` into `num_shards` (clamped to >= 1) centroidal-Voronoi
  /// shards, Lloyd-seeded from the recursive-bisection cuts.
  ShardTracker(const Instance& instance, int num_shards);

  int num_shards() const { return num_shards_; }
  const std::vector<Point>& sites() const { return sites_; }
  const ShardPartition& partition() const { return partition_; }
  const ShardTrackerStats& stats() const { return stats_; }

  /// Shards `op` touches under the current partition, ascending and unique.
  /// Event-bearing ops route to the event's shard (a new event to the
  /// nearest site); user ops route to the user's home shard. Empty means
  /// the op lands on boundary state and is global. Pure routing — never
  /// mutates the tracker.
  std::vector<int> RouteOp(const Instance& instance, const AtomicOp& op) const;

  /// Load imbalance: max over shards of l_s / mean(l_s), where
  /// l_s = recorded ms + 0.001 * recorded ops. 0 when num_shards < 2 or no
  /// load has been recorded since the last rebalance.
  double Skew() const;

  /// Max/mean imbalance of `partition`'s interior-user populations (0 when
  /// fewer than 2 shards or no interior users) — the structural counterpart
  /// of the load skew, used for rebalance reporting and tests.
  static double StructuralSkew(const ShardPartition& partition);

  /// Incrementally folds an already-applied op into the partition. Only the
  /// ops that can change reachability or event homes do any work (budget
  /// change, event location change, new event); the rest return
  /// immediately. The affected-user set is computed from the op — both the
  /// old and the new geometry — with the exact budget predicate
  /// ReachabilityFilter uses, so reclassifying just those users reproduces
  /// a from-scratch rebuild bit for bit.
  ///
  /// Fault point `shard.migrate`: when armed and firing, the incremental
  /// path is abandoned for that op and the partition is rebuilt from the
  /// current sites instead (counted in stats().full_rebuilds) — degraded,
  /// never wrong. Always returns OK unless `op` references ids the tracker
  /// has never seen (kOutOfRange).
  Status ApplyMigration(const Instance& instance, const AtomicOp& op);

  /// The per-op step for an op the planner has just applied to `instance`:
  /// routes it against the partition as it was before the op (the cut that
  /// did the work), migrates the partition (ApplyMigration), then charges
  /// `elapsed_ms` to the routed shards. The cost is charged even when the
  /// migration fails; the returned status is the migration's.
  Status TrackAppliedOp(const Instance& instance, const AtomicOp& op,
                        double elapsed_ms);

  /// Re-centers the sites with a Lloyd run warm-started from the current
  /// sites, rebuilds the partition, and resets the load-accounting window.
  ///
  /// Fault point `shard.rebalance`: when armed and firing, returns the
  /// injected error and leaves sites, partition and load window untouched.
  Result<RebalanceReport> Rebalance(const Instance& instance);

  /// From-scratch reclassification of `instance` against the current sites
  /// — the reference the incremental path must match exactly. Exposed for
  /// the churn torture battery.
  ShardPartition RebuildFromSites(const Instance& instance) const;

 private:
  /// Charges `elapsed_ms` of apply work to `shards` (split evenly; an empty
  /// list spreads the cost over every shard — global work).
  void RecordOpCost(const std::vector<int>& shards, double elapsed_ms);

  /// True iff user i's budget admits the round trip to an event with this
  /// location and fee — ReachabilityFilter::CanReach's predicate, verbatim,
  /// usable against a location the instance no longer holds.
  static bool CanReachLocation(const Instance& instance, UserId i,
                               const Point& location, double fee);

  /// Reclassifies `users` (ascending, unique) against the current
  /// event_shard, moving each between interior/boundary containers exactly
  /// as FinishPartitionFromEventShards would place them. Returns how many
  /// users actually changed classification.
  int ReclassifyUsers(const Instance& instance,
                      const std::vector<UserId>& users);

  /// Swaps in a partition rebuilt from the current sites and snapshots the
  /// event locations. The degraded migration path.
  void FullRebuild(const Instance& instance);

  int num_shards_ = 1;
  std::vector<Point> sites_;
  ShardPartition partition_;
  /// Event-location snapshot mirroring the instance — kLocationChanged
  /// migrations need the OLD location to find the users losing reach.
  std::vector<Point> event_locations_;

  // Load-accounting window: only grows until Rebalance resets it.
  std::vector<double> shard_ms_;
  std::vector<uint64_t> shard_ops_;

  ShardTrackerStats stats_;
};

}  // namespace gepc

#endif  // GEPC_SHARD_REBALANCE_H_
