#ifndef GEPC_CORE_PLAN_H_
#define GEPC_CORE_PLAN_H_

#include <cstdint>
#include <vector>

#include "core/instance.h"
#include "core/types.h"

namespace gepc {

/// A global plan P = {P_1, ..., P_n}: for each user the set of events they
/// attend (Sec. II). Maintains both directions (user -> events and
/// event -> attendees) so solvers can query either in O(1)/O(k).
///
/// A Plan does not enforce feasibility — solvers build partial plans — but
/// ValidatePlan (core/feasibility.h) checks the four GEPC constraints.
class Plan {
 public:
  Plan() = default;

  /// Empty plan over n users and m events.
  Plan(int num_users, int num_events);

  int num_users() const { return static_cast<int>(user_events_.size()); }
  int num_events() const { return static_cast<int>(event_users_.size()); }

  /// Adds e_j to P_i. Returns false (no-op) if already present.
  bool Add(UserId i, EventId j);

  /// Removes e_j from P_i. Returns false (no-op) if not present.
  bool Remove(UserId i, EventId j);

  /// True iff e_j in P_i.
  bool Contains(UserId i, EventId j) const;

  /// Events in P_i (unordered; sort by start time for tours).
  const std::vector<EventId>& events_of(UserId i) const {
    return user_events_[static_cast<size_t>(i)];
  }

  /// Users assigned to e_j.
  const std::vector<UserId>& attendees_of(EventId j) const {
    return event_users_[static_cast<size_t>(j)];
  }

  /// Number of users assigned to e_j (the paper's n_j).
  int attendance(EventId j) const {
    return static_cast<int>(event_users_[static_cast<size_t>(j)].size());
  }

  /// Total number of (user, event) assignments.
  int64_t TotalAssignments() const;

  /// Global utility U_P = sum_i sum_{e_j in P_i} mu(u_i, e_j) (Sec. II-A).
  double TotalUtility(const Instance& instance) const;

  /// Number of events whose attendance is below their lower bound xi_j —
  /// the shortfall the paper's Algorithm 4 works to repair.
  int CountEventsBelowLowerBound(const Instance& instance) const;

  /// Grows the event dimension (after Instance::AddEvent).
  void EnsureEventCapacity(int num_events);

  /// Removes every assignment.
  void Clear();

  friend bool operator==(const Plan& a, const Plan& b);

 private:
  std::vector<std::vector<EventId>> user_events_;
  std::vector<std::vector<UserId>> event_users_;
};

/// The paper's negative impact dif(P, P') = sum_i |P_i \ P'_i| (Sec. II-B):
/// the number of (user, event) attendances of `before` that were lost in
/// `after`. Preconditions: same number of users.
int64_t NegativeImpact(const Plan& before, const Plan& after);

}  // namespace gepc

#endif  // GEPC_CORE_PLAN_H_
