#ifndef GEPC_CORE_INSTANCE_H_
#define GEPC_CORE_INSTANCE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/event.h"
#include "core/types.h"
#include "core/user.h"
#include "temporal/conflict_graph.h"

namespace gepc {

/// A complete EBSN planning instance: n users, m events, and the n x m
/// utility matrix mu(u_i, e_j) >= 0 (mu == 0 means "cannot / will not
/// attend", Sec. II). The instance is mutable because the IEP atomic
/// operations (Sec. IV) edit exactly these fields.
///
/// Copies are cheap: they share the utility matrix and the ConflictGraph.
/// The matrix is copy-on-write (set_utility clones it while another Instance
/// still shares it); the graph is immutable and replaced whenever an event's
/// time changes or an event is added.
class Instance {
 public:
  Instance() : Instance({}, {}) {}

  /// Builds an instance with all utilities zero; fill with set_utility.
  Instance(std::vector<User> users, std::vector<Event> events);

  int num_users() const { return static_cast<int>(users_.size()); }
  int num_events() const { return static_cast<int>(events_.size()); }

  const User& user(UserId i) const { return users_[static_cast<size_t>(i)]; }
  const Event& event(EventId j) const {
    return events_[static_cast<size_t>(j)];
  }
  const std::vector<User>& users() const { return users_; }
  const std::vector<Event>& events() const { return events_; }

  /// mu(u_i, e_j).
  double utility(UserId i, EventId j) const {
    return utilities_[static_cast<size_t>(i) * events_.size() +
                      static_cast<size_t>(j)];
  }
  void set_utility(UserId i, EventId j, double value);

  /// Euclidean travel distances (Sec. II uses straight-line distance).
  double UserEventDistance(UserId i, EventId j) const;
  double EventEventDistance(EventId a, EventId b) const;

  /// Pairwise time-conflict relation over events.
  const ConflictGraph& conflicts() const { return *conflicts_; }

  /// True iff events a and b cannot both be in one user's plan.
  bool EventsConflict(EventId a, EventId b) const {
    return conflicts().conflicts(a, b);
  }

  // ---- Mutators used by the IEP atomic operations ---------------------

  /// Changes a user's travel budget (atomic op "B_i changed").
  void set_user_budget(UserId i, double budget);

  /// Changes an event's participation bounds (atomic ops on xi / eta).
  /// Returns InvalidArgument if the pair is inconsistent.
  Status set_event_bounds(EventId j, int lower, int upper);

  /// Changes an event's holding time (atomic op on ts / tt); rebuilds the
  /// conflict graph. Returns InvalidArgument for an empty interval.
  Status set_event_time(EventId j, Interval time);

  /// Changes an event's location (atomic op "location changed").
  void set_event_location(EventId j, Point location);

  /// Appends a new event with the given per-user utility column (atomic op
  /// "new event added"); returns its id.
  EventId AddEvent(const Event& event, const std::vector<double>& utilities);

  /// Structural sanity check: valid events, non-negative budgets and
  /// utilities, matrix dimensions. Solvers call this once up front.
  Status Validate() const;

  /// Sum over events of xi_j — the m^+ of the paper's event-copy transform.
  int64_t TotalLowerBound() const;

 private:
  void RebuildConflicts();

  std::vector<User> users_;
  std::vector<Event> events_;
  std::shared_ptr<double[]> utilities_;  // row-major n x m, copy-on-write
  std::shared_ptr<const ConflictGraph> conflicts_;
};

}  // namespace gepc

#endif  // GEPC_CORE_INSTANCE_H_
