#include "iep/time_change.h"

#include <algorithm>
#include <vector>

#include "core/feasibility.h"
#include "gepc/topup.h"
#include "iep/xi_increase.h"

namespace gepc {

void ApplyTimeChange(const Instance& instance, EventId event, Plan* plan,
                     IepResult* report) {
  // Lines 1-4: drop e_j from every attendee whose plan now conflicts with
  // its new holding time (or whose tour no longer fits — a location change
  // routed through this repair can break budgets too). The loop removes
  // from e_j's attendee list, so it walks a copy taken first.
  const std::vector<UserId> attendees = plan->attendees_of(event);
  std::vector<UserId> displaced;
  for (UserId i : attendees) {
    bool conflicted = false;
    for (EventId other : plan->events_of(i)) {
      if (other != event && instance.EventsConflict(other, event)) {
        conflicted = true;
        break;
      }
    }
    if (!conflicted && UserTravelCost(instance, *plan, i) <=
                           instance.user(i).budget + kBudgetEpsilon) {
      continue;
    }
    plan->Remove(i, event);
    displaced.push_back(i);
    ++report->negative_impact;
  }

  // Re-offer other events to the displaced users (additions only).
  report->added_by_topup += TopUpUsers(instance, displaced, plan).added;

  const int xi = instance.event(event).lower_bound;
  const int eta = instance.event(event).upper_bound;
  if (plan->attendance(event) >= xi) return;  // Lines 5-6

  // Lines 7-13: offer e_j to other users in decreasing utility order.
  std::vector<UserId> candidates;
  for (int i = 0; i < instance.num_users(); ++i) {
    if (!plan->Contains(i, event) && instance.utility(i, event) > 0.0) {
      candidates.push_back(i);
    }
  }
  std::sort(candidates.begin(), candidates.end(), [&](UserId a, UserId b) {
    const double ua = instance.utility(a, event);
    const double ub = instance.utility(b, event);
    if (ua != ub) return ua > ub;
    return a < b;
  });
  for (UserId i : candidates) {
    if (plan->attendance(event) >= eta) break;
    if (CanAttend(instance, *plan, i, event)) {
      plan->Add(i, event);  // pure addition: dif 0
    }
  }

  // Lines 14-18: if still short, transfer users from events with spares
  // via Algorithm 4 (the instance already holds xi as e_j's lower bound;
  // Algorithm 4 returns at once when it is met).
  ApplyXiIncrease(instance, event, plan, report);
}

}  // namespace gepc
