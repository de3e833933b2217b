#include "iep/eta_decrease.h"

#include <algorithm>
#include <vector>

#include "gepc/topup.h"

namespace gepc {

void ApplyEtaDecrease(const Instance& instance, EventId event, Plan* plan,
                      IepResult* report) {
  const int eta = instance.event(event).upper_bound;
  if (plan->attendance(event) <= eta) return;  // Lines 1-2: nothing to repair

  // Line 4: attendees in decreasing order of utility for the event.
  std::vector<UserId> attendees = plan->attendees_of(event);
  std::sort(attendees.begin(), attendees.end(), [&](UserId a, UserId b) {
    const double ua = instance.utility(a, event);
    const double ub = instance.utility(b, event);
    if (ua != ub) return ua > ub;
    return a < b;
  });

  // Line 5: the last n_j - eta'_j (lowest-utility) attendees lose the event.
  attendees.erase(attendees.begin(), attendees.begin() + eta);
  for (UserId i : attendees) {
    plan->Remove(i, event);
    ++report->negative_impact;
  }

  // Lines 6-8: re-offer other events to the displaced users ([4]).
  report->added_by_topup += TopUpUsers(instance, attendees, plan).added;
}

}  // namespace gepc
