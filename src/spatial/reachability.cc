#include "spatial/reachability.h"

#include "core/feasibility.h"

namespace gepc {

namespace {

std::vector<Point> EventLocations(const Instance& instance) {
  std::vector<Point> locations;
  locations.reserve(static_cast<size_t>(instance.num_events()));
  for (const Event& event : instance.events()) {
    locations.push_back(event.location);
  }
  return locations;
}

}  // namespace

ReachabilityFilter::ReachabilityFilter(const Instance& instance)
    : instance_(instance), grid_(EventLocations(instance)) {}

std::vector<EventId> ReachabilityFilter::AttendableEvents(UserId i) const {
  const User& user = instance_.user(i);
  // The disk radius ignores fees (they only shrink the budget), so the grid
  // returns a superset; the exact round-trip test below trims it.
  const std::vector<int> nearby = grid_.RadiusQuery(
      user.location, user.budget / 2.0 + kBudgetEpsilon);
  std::vector<EventId> attendable;
  attendable.reserve(nearby.size());
  for (int j : nearby) {
    if (CanReach(i, j)) attendable.push_back(j);
  }
  return attendable;  // RadiusQuery ascends, so this does too
}

bool ReachabilityFilter::CanReach(UserId i, EventId j) const {
  return 2.0 * instance_.UserEventDistance(i, j) + instance_.event(j).fee <=
         instance_.user(i).budget + kBudgetEpsilon;
}

}  // namespace gepc
