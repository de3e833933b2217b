#include "gepc/local_search.h"

#include <algorithm>
#include <vector>

#include "core/feasibility.h"

namespace gepc {

namespace {

/// Minimum utility gain for a move to be accepted (guards float noise).
constexpr double kMinGain = 1e-9;

/// True iff user u can hold `candidate` after removing `without` (-1 keeps
/// everything): conflict-free and within budget.
bool FitsAfterSwap(const Instance& instance, const Plan& plan, UserId u,
                   EventId without, EventId candidate) {
  std::vector<EventId> events;
  for (EventId e : plan.events_of(u)) {
    if (e != without) events.push_back(e);
  }
  for (EventId e : events) {
    if (instance.EventsConflict(e, candidate)) return false;
  }
  events.push_back(candidate);
  return TourCost(instance, u, std::move(events)) <=
         instance.user(u).budget + kBudgetEpsilon;
}

}  // namespace

Result<LocalSearchStats> RefinePlan(const Instance& instance, Plan* plan,
                                    const LocalSearchOptions& options) {
  if (plan == nullptr) {
    return Status::InvalidArgument("plan must not be null");
  }
  if (plan->num_users() != instance.num_users() ||
      plan->num_events() != instance.num_events()) {
    return Status::InvalidArgument("plan does not match the instance");
  }
  if (options.max_passes <= 0) {
    return Status::InvalidArgument("max_passes must be positive");
  }
  const AffinityParams& aff = options.affinity;
  const bool social = aff.Armed();
  if (social && aff.graph->num_users() != instance.num_users()) {
    return Status::InvalidArgument(
        "friendship graph does not cover the instance's users");
  }
  // 2*lambda per friend: the mover gains lambda per attending friend and
  // each of those friends gains lambda back. Unarmed, every score below
  // stays the bare mu, so behaviour is byte-identical to the plain refiner.
  auto friends_at = [&](UserId u, EventId j) {
    return FriendsAttending(*aff.graph, *plan, u, j);
  };

  LocalSearchStats stats;
  auto moves_left = [&] {
    return options.max_moves == 0 ||
           stats.add_moves + stats.replace_moves + stats.transfer_moves <
               options.max_moves;
  };

  const int n = instance.num_users();
  const int m = instance.num_events();
  bool improved = true;
  while (improved && stats.passes < options.max_passes && moves_left()) {
    improved = false;
    ++stats.passes;

    // ---- ADD: any feasible positive-utility insertion ------------------
    if (options.enable_add) {
      for (int i = 0; i < n && moves_left(); ++i) {
        for (int j = 0; j < m && moves_left(); ++j) {
          double gain = instance.utility(i, j);
          if (social) gain += 2.0 * aff.lambda * friends_at(i, j);
          if (gain <= kMinGain) continue;
          if (plan->attendance(j) >= instance.event(j).upper_bound) continue;
          if (!CanAttend(instance, *plan, i, j)) continue;
          plan->Add(i, j);
          ++stats.add_moves;
          stats.utility_gain += gain;
          improved = true;
        }
      }
    }

    // ---- REPLACE: drop a for a strictly better b within one user -------
    if (options.enable_replace) {
      for (int i = 0; i < n && moves_left(); ++i) {
        bool user_changed = true;
        while (user_changed && moves_left()) {
          user_changed = false;
          const std::vector<EventId> held = plan->events_of(i);
          for (EventId a : held) {
            // Dropping a must not push its event below a met lower bound.
            if (plan->attendance(a) <= instance.event(a).lower_bound) {
              continue;
            }
            double score_a = instance.utility(i, a);
            if (social) score_a += 2.0 * aff.lambda * friends_at(i, a);
            EventId best_b = kInvalidEvent;
            double best_gain = kMinGain;
            for (int b = 0; b < m; ++b) {
              if (plan->Contains(i, b)) continue;
              double score_b = instance.utility(i, b);
              if (social) score_b += 2.0 * aff.lambda * friends_at(i, b);
              const double gain = score_b - score_a;
              if (gain <= best_gain) continue;
              if (plan->attendance(b) >= instance.event(b).upper_bound) {
                continue;
              }
              if (instance.utility(i, b) <= 0.0) continue;
              if (!FitsAfterSwap(instance, *plan, i, a, b)) continue;
              best_b = b;
              best_gain = gain;
            }
            if (best_b != kInvalidEvent) {
              plan->Remove(i, a);
              plan->Add(i, best_b);
              ++stats.replace_moves;
              stats.utility_gain += best_gain;
              improved = true;
              user_changed = true;
              break;  // held is stale; rescan this user
            }
          }
        }
      }
    }

    // ---- TRANSFER: hand an attendance to a user who values it more -----
    if (options.enable_transfer) {
      for (int j = 0; j < m && moves_left(); ++j) {
        bool event_changed = true;
        while (event_changed && moves_left()) {
          event_changed = false;
          const std::vector<UserId> attendees = plan->attendees_of(j);
          for (UserId u : attendees) {
            double score_u = instance.utility(u, j);
            if (social) score_u += 2.0 * aff.lambda * friends_at(u, j);
            UserId best_v = kInvalidUser;
            double best_gain = kMinGain;
            for (int v = 0; v < n; ++v) {
              if (plan->Contains(v, j)) continue;
              double score_v = instance.utility(v, j);
              if (social) {
                // u departs before v arrives: if they are friends, v does
                // not get credit for u's attendance.
                int fv = friends_at(v, j);
                if (aff.graph->AreFriends(u, v)) --fv;
                score_v += 2.0 * aff.lambda * fv;
              }
              const double gain = score_v - score_u;
              if (gain <= best_gain) continue;
              if (instance.utility(v, j) <= 0.0) continue;
              if (!FitsAfterSwap(instance, *plan, v, kInvalidEvent, j)) {
                continue;
              }
              best_v = v;
              best_gain = gain;
            }
            if (best_v != kInvalidUser) {
              plan->Remove(u, j);
              plan->Add(best_v, j);
              ++stats.transfer_moves;
              stats.utility_gain += best_gain;
              improved = true;
              event_changed = true;
              break;  // attendees is stale; rescan this event
            }
          }
        }
      }
    }
  }
  return stats;
}

}  // namespace gepc
