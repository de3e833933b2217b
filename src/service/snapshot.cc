#include "service/snapshot.h"

namespace gepc {

int CountEventsBelowLowerBound(const Instance& instance, const Plan& plan) {
  int below = 0;
  for (int j = 0; j < instance.num_events(); ++j) {
    if (plan.attendance(j) < instance.event(j).lower_bound) ++below;
  }
  return below;
}

std::shared_ptr<const ServiceSnapshot> MakeServiceSnapshot(
    const Instance& instance, const Plan& plan, uint64_t version) {
  auto snapshot = std::make_shared<ServiceSnapshot>();
  snapshot->version = version;
  snapshot->instance = std::make_shared<const Instance>(instance);
  snapshot->plan = std::make_shared<const Plan>(plan);
  snapshot->total_utility = plan.TotalUtility(instance);
  snapshot->total_assignments = plan.TotalAssignments();
  snapshot->events_below_lower_bound =
      CountEventsBelowLowerBound(instance, plan);
  return snapshot;
}

}  // namespace gepc
