#include "core/itinerary.h"

#include <algorithm>
#include <cstdio>

#include "core/feasibility.h"

namespace gepc {

Itinerary BuildItinerary(const Instance& instance, const Plan& plan,
                         UserId user) {
  Itinerary itinerary;
  itinerary.user = user;
  itinerary.budget = instance.user(user).budget;

  std::vector<EventId> events = plan.events_of(user);
  std::sort(events.begin(), events.end(), [&](EventId a, EventId b) {
    const Interval& ia = instance.event(a).time;
    const Interval& ib = instance.event(b).time;
    if (ia.start != ib.start) return ia.start < ib.start;
    if (ia.end != ib.end) return ia.end < ib.end;
    return a < b;
  });

  Point here = instance.user(user).location;
  for (size_t k = 0; k < events.size(); ++k) {
    const EventId j = events[k];
    const Event& e = instance.event(j);
    ItineraryStop stop;
    stop.event = j;
    stop.time = e.time;
    stop.travel_from_previous = Distance(here, e.location);
    stop.fee = e.fee;
    stop.utility = instance.utility(user, j);
    itinerary.total_travel += stop.travel_from_previous;
    itinerary.total_fees += stop.fee;
    itinerary.total_utility += stop.utility;
    if (k > 0 &&
        instance.EventsConflict(events[k - 1], j)) {
      itinerary.conflict_free = false;
    }
    here = e.location;
    itinerary.stops.push_back(stop);
  }
  // Also catch non-adjacent conflicts (possible with nested intervals).
  if (itinerary.conflict_free && HasTimeConflict(instance, events)) {
    itinerary.conflict_free = false;
  }

  if (!events.empty()) {
    itinerary.travel_home =
        Distance(here, instance.user(user).location);
    itinerary.total_travel += itinerary.travel_home;
  }
  itinerary.total_cost = itinerary.total_travel + itinerary.total_fees;
  itinerary.within_budget =
      itinerary.total_cost <= itinerary.budget + kBudgetEpsilon;
  return itinerary;
}

std::vector<Itinerary> BuildAllItineraries(const Instance& instance,
                                           const Plan& plan) {
  std::vector<Itinerary> itineraries;
  for (int i = 0; i < instance.num_users(); ++i) {
    if (!plan.events_of(i).empty()) {
      itineraries.push_back(BuildItinerary(instance, plan, i));
    }
  }
  return itineraries;
}

std::string Itinerary::ToString() const {
  char line[160];
  std::snprintf(line, sizeof(line),
                "u%d (budget %.1f, cost %.1f%s%s): utility %.2f\n", user,
                budget, total_cost, within_budget ? "" : " OVER BUDGET",
                conflict_free ? "" : " CONFLICTED", total_utility);
  std::string out = line;
  for (const ItineraryStop& stop : stops) {
    std::snprintf(line, sizeof(line),
                  "  %-22s e%-4d travel %6.2f  fee %5.2f  utility %.2f\n",
                  FormatInterval(stop.time).c_str(), stop.event,
                  stop.travel_from_previous, stop.fee, stop.utility);
    out += line;
  }
  if (!stops.empty()) {
    std::snprintf(line, sizeof(line), "  home%38s %6.2f\n", "travel",
                  travel_home);
    out += line;
  }
  return out;
}

}  // namespace gepc
