#include "core/feasibility.h"

#include <algorithm>
#include <string>

namespace gepc {

namespace {

void SortByStartTime(const Instance& instance, std::vector<EventId>* events) {
  std::sort(events->begin(), events->end(), [&](EventId a, EventId b) {
    const Interval& ia = instance.event(a).time;
    const Interval& ib = instance.event(b).time;
    if (ia.start != ib.start) return ia.start < ib.start;
    if (ia.end != ib.end) return ia.end < ib.end;
    return a < b;
  });
}

}  // namespace

double TourCost(const Instance& instance, UserId i,
                std::vector<EventId> events) {
  if (events.empty()) return 0.0;
  SortByStartTime(instance, &events);
  double cost = instance.UserEventDistance(i, events.front());
  for (size_t k = 0; k + 1 < events.size(); ++k) {
    cost += instance.EventEventDistance(events[k], events[k + 1]);
  }
  cost += instance.UserEventDistance(i, events.back());
  // Admission fees are charged against the same budget (Sec. VII
  // extension); zero fees recover the paper's pure-travel model.
  for (EventId j : events) cost += instance.event(j).fee;
  return cost;
}

double UserTravelCost(const Instance& instance, const Plan& plan, UserId i) {
  return TourCost(instance, i, plan.events_of(i));
}

bool HasTimeConflict(const Instance& instance,
                     const std::vector<EventId>& events) {
  for (size_t a = 0; a < events.size(); ++a) {
    for (size_t b = a + 1; b < events.size(); ++b) {
      if (instance.EventsConflict(events[a], events[b])) return true;
    }
  }
  return false;
}

bool ConflictsWithPlan(const Instance& instance, const Plan& plan, UserId i,
                       EventId j) {
  for (EventId existing : plan.events_of(i)) {
    if (instance.EventsConflict(existing, j)) return true;
  }
  return false;
}

Status ValidatePlan(const Instance& instance, const Plan& plan,
                    const ValidationOptions& options) {
  if (plan.num_users() != instance.num_users() ||
      plan.num_events() != instance.num_events()) {
    return Status::InvalidArgument("plan dimensions do not match instance");
  }

  for (int i = 0; i < instance.num_users(); ++i) {
    const std::vector<EventId>& events = plan.events_of(i);
    if (HasTimeConflict(instance, events)) {
      return Status::Infeasible("user " + std::to_string(i) +
                                " has time-conflicting events in their plan");
    }
    const double cost = TourCost(instance, i, events);
    if (cost > instance.user(i).budget + kBudgetEpsilon) {
      return Status::Infeasible("user " + std::to_string(i) + " travel cost " +
                                std::to_string(cost) + " exceeds budget " +
                                std::to_string(instance.user(i).budget));
    }
    if (options.check_positive_utility) {
      for (EventId j : events) {
        if (instance.utility(i, j) <= 0.0) {
          return Status::Infeasible("user " + std::to_string(i) +
                                    " is assigned zero-utility event " +
                                    std::to_string(j));
        }
      }
    }
  }

  for (int j = 0; j < instance.num_events(); ++j) {
    const int attendance = plan.attendance(j);
    if (attendance > instance.event(j).upper_bound) {
      return Status::Infeasible(
          "event " + std::to_string(j) + " has " + std::to_string(attendance) +
          " attendees, above its upper bound " +
          std::to_string(instance.event(j).upper_bound));
    }
    if (options.check_lower_bounds &&
        attendance < instance.event(j).lower_bound) {
      return Status::Infeasible(
          "event " + std::to_string(j) + " has " + std::to_string(attendance) +
          " attendees, below its lower bound " +
          std::to_string(instance.event(j).lower_bound));
    }
  }
  return Status::OK();
}

bool CanAttend(const Instance& instance, const Plan& plan, UserId i,
               EventId j) {
  if (plan.Contains(i, j)) return false;
  if (instance.utility(i, j) <= 0.0) return false;
  if (ConflictsWithPlan(instance, plan, i, j)) return false;
  const double cost = TravelCostWithEvent(instance, plan, i, j);
  return cost <= instance.user(i).budget + kBudgetEpsilon;
}

double TravelCostWithEvent(const Instance& instance, const Plan& plan,
                           UserId i, EventId j) {
  std::vector<EventId> events = plan.events_of(i);
  events.push_back(j);
  return TourCost(instance, i, std::move(events));
}

}  // namespace gepc
