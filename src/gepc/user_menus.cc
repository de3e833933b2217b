#include "gepc/user_menus.h"

#include <algorithm>
#include <string>
#include <vector>

#include "core/feasibility.h"
#include "obs/metrics.h"

namespace gepc {

Result<UserMenu> BuildUserMenu(const Instance& instance, UserId i,
                               bool sort_by_utility_desc,
                               const ReachabilityFilter* filter) {
  static const auto menus_total = obs::Registry::Global().GetCounter(
      "gepc_menu_builds_total", "user menus enumerated");
  static const auto menu_ms = obs::Registry::Global().GetHistogram(
      "gepc_menu_build_ms", "per-user menu enumeration latency");
  menus_total->Increment();
  obs::ScopedTimerMs timer(menu_ms.get());
  const int m = instance.num_events();
  if (m > kMaxUserMenuEvents) {
    return Status::InvalidArgument(
        "user menus support at most " + std::to_string(kMaxUserMenuEvents) +
        " events (instance has " + std::to_string(m) +
        "); use the approximate solvers for large instances");
  }
  UserMenu menu;
  // Events the user could attend alone. The grid prefilter hands back the
  // budget-reachable candidates directly; the brute-force path checks the
  // same round-trip bound against every event.
  std::vector<EventId> singles;
  if (filter != nullptr) {
    for (EventId j : filter->AttendableEvents(i)) {
      if (instance.utility(i, j) > 0.0) singles.push_back(j);
    }
  } else {
    for (int j = 0; j < m; ++j) {
      if (instance.utility(i, j) <= 0.0) continue;
      if (2.0 * instance.UserEventDistance(i, j) + instance.event(j).fee >
          instance.user(i).budget + kBudgetEpsilon) {
        continue;
      }
      singles.push_back(j);
    }
  }
  // Grow feasible subsets incrementally (every subset of a feasible set is
  // feasible for conflicts, and tours are monotone, so BFS over additions
  // visits everything feasible).
  menu.subsets.push_back(0);
  menu.utilities.push_back(0.0);
  std::vector<std::vector<EventId>> members = {{}};
  for (size_t head = 0; head < menu.subsets.size(); ++head) {
    const uint32_t mask = menu.subsets[head];
    const std::vector<EventId> base = members[head];
    for (EventId j : singles) {
      if (mask & (1u << j)) continue;
      if (!base.empty() && j < base.back()) continue;  // canonical order
      bool conflict = false;
      for (EventId held : base) {
        if (instance.EventsConflict(held, j)) {
          conflict = true;
          break;
        }
      }
      if (conflict) continue;
      std::vector<EventId> grown = base;
      grown.push_back(j);
      if (TourCost(instance, i, grown) > instance.user(i).budget + kBudgetEpsilon) {
        continue;
      }
      menu.subsets.push_back(mask | (1u << j));
      menu.utilities.push_back(menu.utilities[head] + instance.utility(i, j));
      members.push_back(std::move(grown));
    }
  }
  for (size_t s = 0; s < menu.subsets.size(); ++s) {
    menu.best_utility = std::max(menu.best_utility, menu.utilities[s]);
    menu.attendable |= menu.subsets[s];
  }
  if (!sort_by_utility_desc) return menu;
  // Visit high-utility subsets first so good incumbents appear early.
  std::vector<size_t> order(menu.subsets.size());
  for (size_t s = 0; s < order.size(); ++s) order[s] = s;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return menu.utilities[a] > menu.utilities[b];
  });
  UserMenu sorted;
  sorted.best_utility = menu.best_utility;
  sorted.attendable = menu.attendable;
  for (size_t s : order) {
    sorted.subsets.push_back(menu.subsets[s]);
    sorted.utilities.push_back(menu.utilities[s]);
  }
  return sorted;
}

}  // namespace gepc
