#include "shard/sharded_solver.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/feasibility.h"
#include "exec/task_rng.h"
#include "fault/fault.h"
#include "exec/thread_pool.h"
#include "flow/min_cost_flow.h"
#include "gepc/topup.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gepc {

namespace {

/// Cached registry handles for the partition/solve/merge phase metrics.
struct ShardMetrics {
  std::shared_ptr<obs::Histogram> partition_ms;
  std::shared_ptr<obs::Histogram> solve_ms;
  std::shared_ptr<obs::Histogram> merge_ms;
  std::shared_ptr<obs::Counter> degraded;

  static const ShardMetrics& Get() {
    static const ShardMetrics metrics = [] {
      obs::Registry& registry = obs::Registry::Global();
      ShardMetrics m;
      m.partition_ms = registry.GetHistogram(
          "gepc_shard_partition_ms", "reachability filter + partition latency");
      m.solve_ms = registry.GetHistogram(
          "gepc_shard_solve_ms", "parallel per-shard solve phase latency");
      m.merge_ms = registry.GetHistogram(
          "gepc_shard_merge_ms", "splice + boundary flow + repair latency");
      m.degraded = registry.GetCounter(
          "gepc_shard_degraded_total",
          "shards re-solved with the greedy fallback after a failure");
      return m;
    }();
    return metrics;
  }
};

/// Copies the (users, events) slice of `instance` into a standalone
/// sub-instance. Only reads `instance`, so it is safe to run concurrently
/// for disjoint shards.
Instance BuildSubInstance(const Instance& instance,
                          const std::vector<UserId>& users,
                          const std::vector<EventId>& events) {
  std::vector<User> sub_users;
  sub_users.reserve(users.size());
  for (UserId i : users) sub_users.push_back(instance.user(i));
  std::vector<Event> sub_events;
  sub_events.reserve(events.size());
  for (EventId j : events) {
    Event event = instance.event(j);
    // A shard may hold fewer interior users than xi_j; the shard solve
    // fills what it can and the merge's repair pass covers the remainder
    // from the full user pool.
    event.lower_bound =
        std::min(event.lower_bound, static_cast<int>(users.size()));
    sub_events.push_back(std::move(event));
  }
  Instance sub(std::move(sub_users), std::move(sub_events));
  for (size_t li = 0; li < users.size(); ++li) {
    for (size_t lj = 0; lj < events.size(); ++lj) {
      const double mu = instance.utility(users[li], events[lj]);
      if (mu != 0.0) {
        sub.set_utility(static_cast<UserId>(li), static_cast<EventId>(lj), mu);
      }
    }
  }
  return sub;
}

/// Merge step 2: one min-cost max-flow spending boundary users on the
/// spliced plan's lower-bound deficits. Only events still below xi_j take
/// part — plain-utility placement is the top-up pass's job (greedy and
/// linear), so the number of unit augmentations is bounded by the total
/// deficit, not by the boundary population. Costs are -mu, so among all
/// ways of filling the most deficit units the flow picks the highest-
/// utility one.
int AssignBoundaryByFlow(const Instance& instance,
                         const ReachabilityFilter& filter,
                         const std::vector<UserId>& boundary, Plan* plan) {
  if (boundary.empty()) return 0;
  const int m = instance.num_events();

  std::vector<int> event_node(static_cast<size_t>(m), -1);
  std::vector<EventId> deficit_events;
  for (int j = 0; j < m; ++j) {
    if (plan->attendance(j) < instance.event(j).lower_bound) {
      event_node[static_cast<size_t>(j)] =
          static_cast<int>(deficit_events.size());
      deficit_events.push_back(j);
    }
  }
  if (deficit_events.empty()) return 0;

  // Boundary users with at least one reachable deficit event get a node.
  // Zero-utility candidates stay in: a warm body still satisfies xi_j.
  std::vector<UserId> takers;
  std::vector<std::vector<EventId>> candidates;
  for (const UserId i : boundary) {
    std::vector<EventId> mine;
    for (EventId j : filter.AttendableEvents(i)) {
      if (event_node[static_cast<size_t>(j)] >= 0) mine.push_back(j);
    }
    if (mine.empty()) continue;
    takers.push_back(i);
    candidates.push_back(std::move(mine));
  }
  if (takers.empty()) return 0;
  const int b = static_cast<int>(takers.size());
  const int d = static_cast<int>(deficit_events.size());

  struct PairEdge {
    int edge_id;
    UserId user;
    EventId event;
  };
  std::vector<PairEdge> pairs;
  // Nodes: 0 source | 1..b users | b+1..b+d deficit events | b+d+1 sink.
  const int source = 0;
  const int sink = b + d + 1;
  MinCostFlow flow(sink + 1);
  for (int u = 0; u < b; ++u) {
    flow.AddEdge(source, 1 + u, 1, 0.0);
    const UserId i = takers[static_cast<size_t>(u)];
    for (EventId j : candidates[static_cast<size_t>(u)]) {
      pairs.push_back(PairEdge{
          flow.AddEdge(1 + u, 1 + b + event_node[static_cast<size_t>(j)], 1,
                       -instance.utility(i, j)),
          i, j});
    }
  }
  for (int e = 0; e < d; ++e) {
    const EventId j = deficit_events[static_cast<size_t>(e)];
    const int deficit =
        instance.event(j).lower_bound - plan->attendance(j);
    flow.AddEdge(1 + b + e, sink, deficit, 0.0);
  }
  if (!flow.Solve(source, sink).ok()) return 0;  // bipartite: cannot happen

  int assigned = 0;
  for (const PairEdge& pair : pairs) {
    if (flow.FlowOn(pair.edge_id) <= 0) continue;
    // A single event within the reachability radius is always feasible for
    // an empty plan; the check is defensive.
    if (!CanAttend(instance, *plan, pair.user, pair.event)) continue;
    plan->Add(pair.user, pair.event);
    ++assigned;
  }
  return assigned;
}

/// Merge step 3: the Conflict Adjusting reassignment loop (Algorithm 1)
/// applied to lower-bound deficits — every event still below xi_j is
/// offered to the remaining feasible users in decreasing utility order.
int RepairLowerBounds(const Instance& instance, Plan* plan) {
  int added = 0;
  const int n = instance.num_users();
  for (int j = 0; j < instance.num_events(); ++j) {
    const Event& event = instance.event(j);
    if (plan->attendance(j) >= event.lower_bound) continue;
    std::vector<std::pair<double, UserId>> takers;
    for (UserId i = 0; i < n; ++i) {
      const double mu = instance.utility(i, j);
      if (mu <= 0.0 || plan->Contains(i, j)) continue;
      takers.emplace_back(mu, i);
    }
    std::sort(takers.begin(), takers.end(),
              [](const std::pair<double, UserId>& a,
                 const std::pair<double, UserId>& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    for (const auto& [mu, i] : takers) {
      if (plan->attendance(j) >= event.lower_bound) break;
      if (!CanAttend(instance, *plan, i, j)) continue;
      plan->Add(i, j);
      ++added;
    }
  }
  return added;
}

}  // namespace

Result<GepcResult> SolveSharded(const Instance& instance,
                                const ShardedGepcOptions& options,
                                ShardedGepcStats* stats) {
  GEPC_RETURN_IF_ERROR(instance.Validate());
  if (stats != nullptr) *stats = ShardedGepcStats{};
  const ShardMetrics& om = ShardMetrics::Get();
  GEPC_TRACE_SPAN("shard.sharded_solve");

  // shards <= 1: no cut, no merge — delegate so the result (plan AND
  // stats) is byte-identical to the sequential solver. The single solve is
  // still a fault-injectable "shard" with the same greedy degradation.
  if (options.shards <= 1) {
    if (stats != nullptr) {
      stats->shards = 1;
      stats->interior_users = instance.num_users();
    }
    fault::Inject("shard.slow");
    const Status injected = fault::Inject("shard.solve");
    Result<GepcResult> solved = injected.ok()
                                    ? SolveGepc(instance, options.gepc)
                                    : Result<GepcResult>(injected);
    if (solved.ok()) return solved;
    GepcOptions fallback = options.gepc;
    fallback.algorithm = GepcAlgorithm::kGreedy;
    fallback.refine_with_local_search = false;
    if (stats != nullptr) stats->degraded_shards = 1;
    om.degraded->Increment();
    return SolveGepc(instance, fallback);
  }

  const int n = instance.num_users();
  const int m = instance.num_events();
  Timer timer;

  const ReachabilityFilter filter(instance);
  const ShardPartition partition =
      PartitionInstance(instance, filter, options.shards);
  const int k = partition.num_shards;
  if (stats != nullptr) {
    stats->shards = k;
    stats->boundary_users = static_cast<int>(partition.boundary_users.size());
    stats->interior_users =
        n - static_cast<int>(partition.boundary_users.size());
    stats->partition_seconds = timer.ElapsedSeconds();
  }
  om.partition_ms->Observe(timer.ElapsedSeconds() * 1e3);

  // Per-shard solves. Each task reads the shared instance, builds its
  // private sub-instance and writes one result slot; shard s's randomness
  // comes from DeriveTaskSeed(master, s), so any thread count — including
  // the sequential fallback — produces the same slots.
  timer.Reset();
  const uint64_t master_seed = options.gepc.greedy.seed;
  std::vector<Result<GepcResult>> shard_results(
      static_cast<size_t>(k), Result<GepcResult>(Status::Internal("unsolved")));
  {
    ThreadPool pool(options.threads);
    pool.ParallelFor(0, k, [&](int s) {
      const std::vector<UserId>& users =
          partition.shard_users[static_cast<size_t>(s)];
      const std::vector<EventId>& events =
          partition.shard_events[static_cast<size_t>(s)];
      if (users.empty() && events.empty()) {
        shard_results[static_cast<size_t>(s)] = GepcResult{};
        return;
      }
      GEPC_TRACE_SPAN("shard.shard_solve");
      const Instance sub = BuildSubInstance(instance, users, events);
      GepcOptions shard_options = options.gepc;
      shard_options.greedy.seed =
          DeriveTaskSeed(master_seed, static_cast<uint64_t>(s));
      // Sub-instance user ids are shard-local, so the global friendship
      // graph cannot be consulted inside a shard. Strip affinity here; the
      // merge runs one global affinity-aware refine pass instead.
      shard_options.local_search.affinity = AffinityParams{};
      fault::Inject("shard.slow");  // delay-only: simulates a stalled shard
      const Status injected = fault::Inject("shard.solve");
      shard_results[static_cast<size_t>(s)] =
          injected.ok() ? SolveGepc(sub, shard_options)
                        : Result<GepcResult>(injected);
    });
  }
  // Graceful degradation: re-solve failed shards sequentially with the
  // greedy algorithm (same derived seed, so the degraded result is still
  // deterministic). Only if the fallback itself fails does the whole solve
  // error out.
  for (int s = 0; s < k; ++s) {
    if (shard_results[static_cast<size_t>(s)].ok()) continue;
    const std::vector<UserId>& users =
        partition.shard_users[static_cast<size_t>(s)];
    const std::vector<EventId>& events =
        partition.shard_events[static_cast<size_t>(s)];
    const Instance sub = BuildSubInstance(instance, users, events);
    GepcOptions fallback = options.gepc;
    fallback.algorithm = GepcAlgorithm::kGreedy;
    fallback.refine_with_local_search = false;
    fallback.local_search.affinity = AffinityParams{};
    fallback.greedy.seed = DeriveTaskSeed(master_seed, static_cast<uint64_t>(s));
    auto degraded = SolveGepc(sub, fallback);
    if (!degraded.ok()) return degraded.status();
    shard_results[static_cast<size_t>(s)] = *std::move(degraded);
    if (stats != nullptr) ++stats->degraded_shards;
    om.degraded->Increment();
  }
  if (stats != nullptr) stats->solve_seconds = timer.ElapsedSeconds();
  om.solve_ms->Observe(timer.ElapsedSeconds() * 1e3);

  // Merge step 1: splice the shard plans (disjoint users and events, and
  // sub-instance distances equal global distances, so feasibility carries).
  timer.Reset();
  GepcResult result;
  result.plan = Plan(n, m);
  for (int s = 0; s < k; ++s) {
    const GepcResult& shard = *shard_results[static_cast<size_t>(s)];
    const std::vector<UserId>& users =
        partition.shard_users[static_cast<size_t>(s)];
    const std::vector<EventId>& events =
        partition.shard_events[static_cast<size_t>(s)];
    for (size_t li = 0; li < users.size(); ++li) {
      for (EventId lj : shard.plan.events_of(static_cast<UserId>(li))) {
        result.plan.Add(users[li], events[static_cast<size_t>(lj)]);
      }
    }
    result.unplaced_copies += shard.unplaced_copies;
    result.adjust_stats.removed += shard.adjust_stats.removed;
    result.adjust_stats.reassigned += shard.adjust_stats.reassigned;
    result.adjust_stats.orphaned += shard.adjust_stats.orphaned;
    result.topup_stats.added += shard.topup_stats.added;
    result.local_search_stats.add_moves += shard.local_search_stats.add_moves;
    result.local_search_stats.replace_moves +=
        shard.local_search_stats.replace_moves;
    result.local_search_stats.transfer_moves +=
        shard.local_search_stats.transfer_moves;
    result.local_search_stats.passes =
        std::max(result.local_search_stats.passes,
                 shard.local_search_stats.passes);
    result.local_search_stats.utility_gain +=
        shard.local_search_stats.utility_gain;
  }

  // Merge steps 2-4: flow-assign boundary users (deficits first), repair
  // remaining lower-bound shortfalls, then top up boundary capacity.
  const int flow_assigned = AssignBoundaryByFlow(
      instance, filter, partition.boundary_users, &result.plan);
  const int repair_added = RepairLowerBounds(instance, &result.plan);
  TopUpStats boundary_topup;
  if (options.gepc.run_topup) {
    boundary_topup = TopUpUsers(instance, partition.boundary_users,
                                &result.plan, &filter);
    result.topup_stats.added += boundary_topup.added;
  }
  // With affinity armed, the per-shard solves scored plain mu (the graph is
  // global). One global refine pass over the merged plan recovers the
  // social term — this is what keeps sharded affinity utility near the
  // sequential solver's.
  const AffinityParams& affinity = options.gepc.local_search.affinity;
  if (options.gepc.refine_with_local_search && affinity.Armed()) {
    GEPC_TRACE_SPAN("shard.affinity_refine");
    GEPC_ASSIGN_OR_RETURN(
        const LocalSearchStats refine,
        RefinePlan(instance, &result.plan, options.gepc.local_search));
    result.local_search_stats.add_moves += refine.add_moves;
    result.local_search_stats.replace_moves += refine.replace_moves;
    result.local_search_stats.transfer_moves += refine.transfer_moves;
    result.local_search_stats.passes =
        std::max(result.local_search_stats.passes, refine.passes);
    result.local_search_stats.utility_gain += refine.utility_gain;
  }
  if (stats != nullptr) {
    stats->merge_flow_assigned = flow_assigned;
    stats->lower_bound_repair_added = repair_added;
    stats->merge_topup_added = boundary_topup.added;
    stats->merge_seconds = timer.ElapsedSeconds();
  }
  om.merge_ms->Observe(timer.ElapsedSeconds() * 1e3);

  result.total_utility = result.plan.TotalUtility(instance);
  result.affinity_utility =
      affinity.Armed() ? AffinityUtility(instance, result.plan, affinity)
                       : result.total_utility;
  result.events_below_lower_bound =
      result.plan.CountEventsBelowLowerBound(instance);
  return result;
}

}  // namespace gepc
