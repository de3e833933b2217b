#ifndef GEPC_SPATIAL_REACHABILITY_H_
#define GEPC_SPATIAL_REACHABILITY_H_

#include <vector>

#include "core/instance.h"
#include "core/types.h"
#include "spatial/grid_index.h"

namespace gepc {

/// Budget-reachability prefilter over an instance's events.
///
/// Any closed tour that visits event e_j is at least the round trip
/// 2 * d(l_ui, l_ej) long (triangle inequality), and the admission fee is
/// charged on top — so events with 2 * d + fee > B_i can NEVER appear in
/// u_i's plan, whatever else the plan holds. The filter answers "which
/// events could u_i attend at all?" through the grid index with a disk of
/// radius B_i / 2, in O(cells touched + candidates) instead of the O(m)
/// scan the solvers previously ran per user.
///
/// The filter is a pure accelerator: it returns a superset-exact candidate
/// set (the same events the brute-force round-trip check admits), so wiring
/// it into a solver never changes the solver's result, only its cost.
/// It snapshots event locations at construction; rebuild after location
/// mutations (IEP's kLocationChanged) before trusting it again.
class ReachabilityFilter {
 public:
  /// Indexes the instance's current event locations on an auto-sized grid
  /// (see GridIndex).
  explicit ReachabilityFilter(const Instance& instance);

  const GridIndex& grid() const { return grid_; }

  /// Events e_j with 2 * d(u_i, e_j) + fee_j <= B_i + kBudgetEpsilon,
  /// ascending by event id — exactly the events u_i could attend alone on
  /// the budget side (utility and conflicts are NOT consulted here).
  std::vector<EventId> AttendableEvents(UserId i) const;

  /// Same question for one (user, event) pair, O(1).
  bool CanReach(UserId i, EventId j) const;

 private:
  const Instance& instance_;
  GridIndex grid_;
};

}  // namespace gepc

#endif  // GEPC_SPATIAL_REACHABILITY_H_
