#include "service/snapshot.h"

namespace gepc {

std::shared_ptr<const ServiceSnapshot> MakeServiceSnapshot(
    const Instance& instance, const Plan& plan, uint64_t version,
    const ServiceWriterStats& writer) {
  auto snapshot = std::make_shared<ServiceSnapshot>();
  snapshot->version = version;
  snapshot->instance = std::make_shared<const Instance>(instance);
  snapshot->plan = std::make_shared<const Plan>(plan);
  snapshot->total_utility = plan.TotalUtility(instance);
  snapshot->total_assignments = plan.TotalAssignments();
  snapshot->events_below_lower_bound =
      plan.CountEventsBelowLowerBound(instance);
  snapshot->writer = writer;
  return snapshot;
}

}  // namespace gepc
