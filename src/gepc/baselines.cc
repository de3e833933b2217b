#include "gepc/baselines.h"

#include <vector>

#include "common/rng.h"
#include "flow/min_cost_flow.h"
#include "core/feasibility.h"
#include "gepc/topup.h"
#include "spatial/reachability.h"

namespace gepc {

namespace {

void Finalize(const Instance& instance, BaselineResult* result) {
  result->total_utility = result->plan.TotalUtility(instance);
  result->events_below_lower_bound =
      result->plan.CountEventsBelowLowerBound(instance);
  result->effective_utility = EffectiveUtility(instance, result->plan);
}

}  // namespace

Result<BaselineResult> SolveGepNoLowerBounds(const Instance& instance) {
  GEPC_RETURN_IF_ERROR(instance.Validate());
  BaselineResult result;
  result.plan = Plan(instance.num_users(), instance.num_events());
  // GEP == GEPC without constraint 4; the utility-ordered insertion pass
  // (our stand-in for the arrangement algorithms of [4]) IS the solver.
  // Candidates are enumerated through the budget-reachability grid.
  const ReachabilityFilter filter(instance);
  TopUpPlan(instance, &result.plan, &filter);
  Finalize(instance, &result);
  return result;
}

Result<BaselineResult> SolveRandomBaseline(const Instance& instance,
                                           uint64_t seed) {
  GEPC_RETURN_IF_ERROR(instance.Validate());
  BaselineResult result;
  result.plan = Plan(instance.num_users(), instance.num_events());

  Rng rng(seed);
  std::vector<UserId> users(static_cast<size_t>(instance.num_users()));
  for (int i = 0; i < instance.num_users(); ++i) {
    users[static_cast<size_t>(i)] = i;
  }
  rng.Shuffle(&users);
  std::vector<EventId> events(static_cast<size_t>(instance.num_events()));
  for (int j = 0; j < instance.num_events(); ++j) {
    events[static_cast<size_t>(j)] = j;
  }

  for (UserId i : users) {
    rng.Shuffle(&events);
    for (EventId j : events) {
      if (result.plan.attendance(j) >= instance.event(j).upper_bound) {
        continue;
      }
      if (CanAttend(instance, result.plan, i, j)) result.plan.Add(i, j);
    }
  }
  Finalize(instance, &result);
  return result;
}

Result<BaselineResult> SolveSingleAssignmentOptimal(const Instance& instance) {
  GEPC_RETURN_IF_ERROR(instance.Validate());
  const int n = instance.num_users();
  const int m = instance.num_events();

  // Nodes: 0 source | 1..n users | n+1..n+m events | n+m+1 sink.
  const int source = 0;
  const int sink = n + m + 1;
  MinCostFlow flow(sink + 1);
  for (int i = 0; i < n; ++i) {
    flow.AddEdge(source, 1 + i, 1, 0.0);
    // Bypass: a user may stay home at zero cost, so min-cost max-flow
    // maximizes total utility instead of forcing assignments.
    flow.AddEdge(1 + i, sink, 1, 0.0);
  }
  struct PairEdge {
    int edge_id;
    UserId user;
    EventId event;
  };
  // The grid prefilter hands each user exactly the events whose round trip
  // (plus fee) fits their budget — the same pairs the old O(n * m) scan
  // admitted, found in O(cells touched) per user.
  const ReachabilityFilter filter(instance);
  std::vector<PairEdge> pairs;
  for (int i = 0; i < n; ++i) {
    for (EventId j : filter.AttendableEvents(i)) {
      const double mu = instance.utility(i, j);
      if (mu <= 0.0) continue;
      pairs.push_back(
          PairEdge{flow.AddEdge(1 + i, 1 + n + j, 1, -mu), i, j});
    }
  }
  for (int j = 0; j < m; ++j) {
    flow.AddEdge(1 + n + j, sink, instance.event(j).upper_bound, 0.0);
  }
  GEPC_ASSIGN_OR_RETURN(MinCostFlow::FlowStats stats,
                        flow.Solve(source, sink));
  (void)stats;

  BaselineResult result;
  result.plan = Plan(n, m);
  for (const PairEdge& pair : pairs) {
    if (flow.FlowOn(pair.edge_id) > 0) {
      result.plan.Add(pair.user, pair.event);
    }
  }
  Finalize(instance, &result);
  return result;
}

double EffectiveUtility(const Instance& instance, const Plan& plan) {
  double total = 0.0;
  for (int j = 0; j < instance.num_events(); ++j) {
    if (plan.attendance(j) < instance.event(j).lower_bound) continue;
    for (UserId i : plan.attendees_of(j)) {
      total += instance.utility(i, j);
    }
  }
  return total;
}

}  // namespace gepc
