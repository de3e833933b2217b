#include "iep/xi_increase.h"

#include <algorithm>
#include <queue>
#include <vector>

#include "core/feasibility.h"
#include "gepc/topup.h"

namespace gepc {

namespace {

/// Heap entry: transfer user `user` from `source` to the target event at
/// utility delta `delta` (entries are validated lazily on pop).
struct Transfer {
  double delta;
  UserId user;
  EventId source;

  bool operator<(const Transfer& other) const {
    if (delta != other.delta) return delta < other.delta;
    if (user != other.user) return user > other.user;
    return source > other.source;
  }
};

/// True iff swapping `source` -> `target` in u's plan keeps it conflict-free
/// and within budget.
bool SwapFeasible(const Instance& instance, const Plan& plan, UserId user,
                  EventId source, EventId target) {
  std::vector<EventId> events;
  for (EventId e : plan.events_of(user)) {
    if (e != source) events.push_back(e);
  }
  for (EventId e : events) {
    if (instance.EventsConflict(e, target)) return false;
  }
  events.push_back(target);
  return TourCost(instance, user, std::move(events)) <=
         instance.user(user).budget + kBudgetEpsilon;
}

}  // namespace

void ApplyXiIncrease(const Instance& instance, EventId event, Plan* plan,
                     IepResult* report) {
  const int xi = instance.event(event).lower_bound;
  const int attendance = plan->attendance(event);
  if (attendance >= xi) return;  // Lines 1-2: already satisfied
  const int needed = xi - attendance;

  // Lines 4-7: heap of utility deltas over (spare attendee, donor event).
  std::priority_queue<Transfer> heap;
  for (int j = 0; j < instance.num_events(); ++j) {
    if (j == event) continue;
    if (plan->attendance(j) <= instance.event(j).lower_bound) continue;
    for (UserId i : plan->attendees_of(j)) {
      if (plan->Contains(i, event)) continue;
      if (instance.utility(i, event) <= 0.0) continue;
      heap.push(Transfer{instance.utility(i, event) - instance.utility(i, j),
                         i, j});
    }
  }

  // Lines 8-16: pop best transfers until xi'_j is reached.
  std::vector<UserId> moved;
  std::vector<bool> user_moved(static_cast<size_t>(instance.num_users()),
                               false);
  int transferred = 0;
  while (transferred < needed && !heap.empty()) {
    const Transfer t = heap.top();
    heap.pop();
    // Lazy invalidation replaces the paper's explicit heap deletions
    // (Lines 13 and 16): stale entries are skipped on pop.
    if (user_moved[static_cast<size_t>(t.user)]) continue;
    if (!plan->Contains(t.user, t.source)) continue;
    if (plan->attendance(t.source) <= instance.event(t.source).lower_bound) {
      continue;
    }
    if (plan->Contains(t.user, event)) continue;
    if (plan->attendance(event) >= instance.event(event).upper_bound) {
      break;  // target is full; nothing else can be transferred in
    }
    if (!SwapFeasible(instance, *plan, t.user, t.source, event)) continue;
    plan->Remove(t.user, t.source);
    plan->Add(t.user, event);
    ++report->negative_impact;  // the user lost e_j' (gaining e_j is not dif)
    user_moved[static_cast<size_t>(t.user)] = true;
    moved.push_back(t.user);
    ++transferred;
  }

  // Lines 17-19: re-offer other events to the moved users ([4]).
  report->added_by_topup += TopUpUsers(instance, moved, plan).added;
}

}  // namespace gepc
