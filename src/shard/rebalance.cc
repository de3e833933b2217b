#include "shard/rebalance.h"

#include <algorithm>
#include <utility>

#include "core/feasibility.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "spatial/reachability.h"

namespace gepc {

namespace {

/// Removes `id` from the sorted vector (no-op when absent).
template <typename T>
void SortedErase(std::vector<T>* v, T id) {
  auto it = std::lower_bound(v->begin(), v->end(), id);
  if (it != v->end() && *it == id) v->erase(it);
}

/// Inserts `id` into the sorted vector (no-op when present).
template <typename T>
void SortedInsert(std::vector<T>* v, T id) {
  auto it = std::lower_bound(v->begin(), v->end(), id);
  if (it == v->end() || *it != id) v->insert(it, id);
}

}  // namespace

ShardTracker::ShardTracker(const Instance& instance, int num_shards)
    : num_shards_(std::max(1, num_shards)) {
  const ReachabilityFilter filter(instance);
  VoronoiResult lloyd;
  partition_ =
      PartitionInstanceVoronoi(instance, filter, num_shards_, {}, &lloyd);
  sites_ = std::move(lloyd.sites);
  event_locations_.reserve(static_cast<size_t>(instance.num_events()));
  for (const Event& e : instance.events()) event_locations_.push_back(e.location);
  shard_ms_.assign(static_cast<size_t>(num_shards_), 0.0);
  shard_ops_.assign(static_cast<size_t>(num_shards_), 0);
}

std::vector<int> ShardTracker::RouteOp(const Instance& instance,
                                       const AtomicOp& op) const {
  std::vector<int> shards;
  const auto add = [&shards](int s) {
    if (std::find(shards.begin(), shards.end(), s) == shards.end()) {
      shards.push_back(s);
    }
  };
  if (op.kind == AtomicOp::Kind::kNewEvent) {
    add(NearestSite(sites_, op.new_event.location));
  } else if (op.event != kInvalidEvent &&
             static_cast<size_t>(op.event) < partition_.event_shard.size()) {
    add(partition_.event_shard[static_cast<size_t>(op.event)]);
  }
  if (op.user != kInvalidUser && op.user < instance.num_users() &&
      static_cast<size_t>(op.user) < partition_.user_shard.size()) {
    const int home = partition_.user_shard[static_cast<size_t>(op.user)];
    if (home != kBoundaryUser) add(home);
  }
  std::sort(shards.begin(), shards.end());
  return shards;
}

void ShardTracker::RecordOpCost(const std::vector<int>& shards,
                                double elapsed_ms) {
  if (shards.empty()) {
    // Boundary / global work: everyone pays an equal slice.
    const double slice = elapsed_ms / static_cast<double>(num_shards_);
    for (int s = 0; s < num_shards_; ++s) {
      shard_ms_[static_cast<size_t>(s)] += slice;
      ++shard_ops_[static_cast<size_t>(s)];
    }
  } else {
    const double slice = elapsed_ms / static_cast<double>(shards.size());
    for (int s : shards) {
      if (s < 0 || s >= num_shards_) continue;
      shard_ms_[static_cast<size_t>(s)] += slice;
      ++shard_ops_[static_cast<size_t>(s)];
    }
  }
}

double ShardTracker::Skew() const {
  if (num_shards_ < 2) return 0.0;
  double total = 0.0, max_load = 0.0;
  for (int s = 0; s < num_shards_; ++s) {
    // Op count keeps the signal alive when individual applies are too fast
    // for the ms clock to resolve.
    const double load = shard_ms_[static_cast<size_t>(s)] +
                        0.001 * static_cast<double>(
                                    shard_ops_[static_cast<size_t>(s)]);
    total += load;
    max_load = std::max(max_load, load);
  }
  if (total <= 0.0) return 0.0;
  return max_load / (total / static_cast<double>(num_shards_));
}

double ShardTracker::StructuralSkew(const ShardPartition& partition) {
  if (partition.num_shards < 2) return 0.0;
  size_t total = 0, max_pop = 0;
  for (const auto& users : partition.shard_users) {
    total += users.size();
    max_pop = std::max(max_pop, users.size());
  }
  if (total == 0) return 0.0;
  return static_cast<double>(max_pop) /
         (static_cast<double>(total) / partition.num_shards);
}

bool ShardTracker::CanReachLocation(const Instance& instance, UserId i,
                                    const Point& location, double fee) {
  return 2.0 * Distance(instance.user(i).location, location) + fee <=
         instance.user(i).budget + kBudgetEpsilon;
}

int ShardTracker::ReclassifyUsers(const Instance& instance,
                                  const std::vector<UserId>& users) {
  if (users.empty()) return 0;
  const ReachabilityFilter filter(instance);
  int changed = 0;
  for (UserId i : users) {
    // The interior test of FinishPartitionFromEventShards, for one user.
    int home = kBoundaryUser;
    bool interior = true;
    for (EventId j : filter.AttendableEvents(i)) {
      const int s = partition_.event_shard[static_cast<size_t>(j)];
      if (home == kBoundaryUser) {
        home = s;
      } else if (home != s) {
        interior = false;
        break;
      }
    }
    const int new_shard = (interior && home != kBoundaryUser) ? home
                                                              : kBoundaryUser;
    const int old_shard = partition_.user_shard[static_cast<size_t>(i)];
    if (new_shard == old_shard) continue;
    if (old_shard == kBoundaryUser) {
      SortedErase(&partition_.boundary_users, i);
    } else {
      SortedErase(&partition_.shard_users[static_cast<size_t>(old_shard)], i);
    }
    if (new_shard == kBoundaryUser) {
      SortedInsert(&partition_.boundary_users, i);
    } else {
      SortedInsert(&partition_.shard_users[static_cast<size_t>(new_shard)], i);
    }
    partition_.user_shard[static_cast<size_t>(i)] = new_shard;
    ++changed;
  }
  return changed;
}

void ShardTracker::FullRebuild(const Instance& instance) {
  partition_ = RebuildFromSites(instance);
  event_locations_.clear();
  event_locations_.reserve(static_cast<size_t>(instance.num_events()));
  for (const Event& e : instance.events()) event_locations_.push_back(e.location);
}

Status ShardTracker::ApplyMigration(const Instance& instance,
                                    const AtomicOp& op) {
  switch (op.kind) {
    case AtomicOp::Kind::kUtilityChanged:
    case AtomicOp::Kind::kLowerBoundChanged:
    case AtomicOp::Kind::kUpperBoundChanged:
    case AtomicOp::Kind::kTimeChanged:
      // Neither reachability nor event homes depend on these.
      return Status::OK();
    default:
      break;
  }

  if (!fault::Inject("shard.migrate").ok()) {
    // Degraded, never wrong: abandon the incremental path for this op and
    // reclassify everything from the current sites.
    FullRebuild(instance);
    ++stats_.full_rebuilds;
    ++stats_.migrations;
    return Status::OK();
  }

  int users_changed = 0;
  switch (op.kind) {
    case AtomicOp::Kind::kBudgetChanged: {
      if (op.user < 0 || op.user >= instance.num_users()) {
        return Status::OutOfRange("budget migration: unknown user");
      }
      // Only this user's attendable set moved; event homes are untouched.
      users_changed = ReclassifyUsers(instance, {op.user});
      break;
    }
    case AtomicOp::Kind::kLocationChanged: {
      if (op.event < 0 ||
          static_cast<size_t>(op.event) >= event_locations_.size() ||
          op.event >= instance.num_events()) {
        return Status::OutOfRange("location migration: unknown event");
      }
      const Point old_loc = event_locations_[static_cast<size_t>(op.event)];
      const Point new_loc = instance.event(op.event).location;
      const double fee = instance.event(op.event).fee;
      const int new_shard = NearestSite(sites_, new_loc);
      const int old_shard =
          partition_.event_shard[static_cast<size_t>(op.event)];
      if (new_shard != old_shard) {
        SortedErase(&partition_.shard_events[static_cast<size_t>(old_shard)],
                    op.event);
        SortedInsert(&partition_.shard_events[static_cast<size_t>(new_shard)],
                     op.event);
        partition_.event_shard[static_cast<size_t>(op.event)] = new_shard;
        ++stats_.events_moved;
      }
      event_locations_[static_cast<size_t>(op.event)] = new_loc;
      // A user's classification can only change if the moved event entered
      // or left their reach, or sat in their reach while changing shard —
      // all covered by reach at the old OR the new location.
      std::vector<UserId> affected;
      for (int i = 0; i < instance.num_users(); ++i) {
        if (CanReachLocation(instance, i, old_loc, fee) ||
            CanReachLocation(instance, i, new_loc, fee)) {
          affected.push_back(i);
        }
      }
      users_changed = ReclassifyUsers(instance, affected);
      break;
    }
    case AtomicOp::Kind::kNewEvent: {
      const EventId id = instance.num_events() - 1;
      if (id < 0 ||
          event_locations_.size() + 1 !=
              static_cast<size_t>(instance.num_events())) {
        return Status::OutOfRange("new-event migration: snapshot out of sync");
      }
      const Point loc = instance.event(id).location;
      const double fee = instance.event(id).fee;
      const int shard = NearestSite(sites_, loc);
      partition_.event_shard.push_back(shard);
      // Highest id so far: push_back keeps the shard list ascending.
      partition_.shard_events[static_cast<size_t>(shard)].push_back(id);
      event_locations_.push_back(loc);
      std::vector<UserId> affected;
      for (int i = 0; i < instance.num_users(); ++i) {
        if (CanReachLocation(instance, i, loc, fee)) affected.push_back(i);
      }
      users_changed = ReclassifyUsers(instance, affected);
      break;
    }
    default:
      return Status::OK();
  }

  ++stats_.migrations;
  stats_.users_reclassified += static_cast<uint64_t>(users_changed);
  return Status::OK();
}

Status ShardTracker::TrackAppliedOp(const Instance& instance,
                                    const AtomicOp& op, double elapsed_ms) {
  const std::vector<int> routed = RouteOp(instance, op);
  const Status migrated = ApplyMigration(instance, op);
  RecordOpCost(routed, elapsed_ms);
  return migrated;
}

Result<RebalanceReport> ShardTracker::Rebalance(const Instance& instance) {
  static const std::shared_ptr<obs::Histogram> rebalance_ms =
      obs::Registry::Global().GetHistogram("gepc_shard_rebalance_ms",
                                           "ShardTracker::Rebalance latency");
  obs::ScopedTimerMs timer(rebalance_ms.get());
  GEPC_RETURN_IF_ERROR(fault::Inject("shard.rebalance"));

  RebalanceReport report;
  report.skew_before = Skew();

  VoronoiOptions opts;
  opts.seed_sites = sites_;  // warm start from the current sites
  const ReachabilityFilter filter(instance);
  VoronoiResult lloyd;
  ShardPartition fresh = PartitionInstanceVoronoi(instance, filter,
                                                  num_shards_, opts, &lloyd);
  report.iterations = lloyd.iterations;
  report.cost_initial = lloyd.cost_history.front();
  report.cost_final = lloyd.cost_history.back();
  for (size_t j = 0; j < fresh.event_shard.size(); ++j) {
    if (j >= partition_.event_shard.size() ||
        fresh.event_shard[j] != partition_.event_shard[j]) {
      ++report.events_moved;
    }
  }
  for (size_t i = 0; i < fresh.user_shard.size(); ++i) {
    if (i >= partition_.user_shard.size() ||
        fresh.user_shard[i] != partition_.user_shard[i]) {
      ++report.users_moved;
    }
  }
  report.skew_after = StructuralSkew(fresh);

  sites_ = std::move(lloyd.sites);
  partition_ = std::move(fresh);
  event_locations_.clear();
  event_locations_.reserve(static_cast<size_t>(instance.num_events()));
  for (const Event& e : instance.events()) event_locations_.push_back(e.location);
  // Fresh skew window: the old load profile described the old cut.
  shard_ms_.assign(static_cast<size_t>(num_shards_), 0.0);
  shard_ops_.assign(static_cast<size_t>(num_shards_), 0);

  ++stats_.rebalances;
  return report;
}

ShardPartition ShardTracker::RebuildFromSites(const Instance& instance) const {
  const ReachabilityFilter filter(instance);
  ShardPartition partition;
  partition.num_shards = num_shards_;
  const int m = instance.num_events();
  partition.event_shard.assign(static_cast<size_t>(m), 0);
  for (int j = 0; j < m; ++j) {
    partition.event_shard[static_cast<size_t>(j)] =
        NearestSite(sites_, instance.event(j).location);
  }
  FinishPartitionFromEventShards(instance, filter, &partition);
  return partition;
}

}  // namespace gepc
