#ifndef GEPC_CORE_FEASIBILITY_H_
#define GEPC_CORE_FEASIBILITY_H_

#include <vector>

#include "common/status.h"
#include "core/instance.h"
#include "core/plan.h"
#include "core/types.h"

namespace gepc {

/// Absolute slack on every travel-budget comparison: tours are summed in
/// floating point, so a plan exactly at its budget may overshoot by an ulp.
inline constexpr double kBudgetEpsilon = 1e-9;

/// Travel cost D_i of user i attending `events`: the Euclidean tour
/// l_ui -> e_(1) -> ... -> e_(k) -> l_ui with events visited in start-time
/// order (Sec. II). An empty set costs 0.
double TourCost(const Instance& instance, UserId i,
                std::vector<EventId> events);

/// Travel cost of user i's current plan.
double UserTravelCost(const Instance& instance, const Plan& plan, UserId i);

/// True iff some pair of `events` time-conflicts.
bool HasTimeConflict(const Instance& instance,
                     const std::vector<EventId>& events);

/// True iff event j conflicts with any event already in P_i.
bool ConflictsWithPlan(const Instance& instance, const Plan& plan, UserId i,
                       EventId j);

/// Optional checks of ValidatePlan. Time conflicts, travel budgets and
/// upper bounds are always checked. The participation lower bound is
/// optional because partial plans (mid-solve, or the xi-GEPC sub-problem
/// with relabelled bounds) legitimately violate it.
struct ValidationOptions {
  bool check_lower_bounds = true;
  /// Reject assignments with mu(u_i, e_j) == 0 ("cannot attend", Sec. II).
  bool check_positive_utility = false;
};

/// Checks the four GEPC constraints of Definition 1 against `plan`.
/// Returns OK or the first violation found (kInfeasible) with a message
/// naming the user/event involved.
Status ValidatePlan(const Instance& instance, const Plan& plan,
                    const ValidationOptions& options = {});

/// True iff event j can be added to P_i without breaking the user-side
/// constraints: not already present, mu > 0, no time conflict, and the new
/// tour still fits budget B_i. Event capacity is NOT checked here (solvers
/// track remaining capacity themselves).
bool CanAttend(const Instance& instance, const Plan& plan, UserId i,
               EventId j);

/// Tour cost of P_i if event j were added (no feasibility check).
double TravelCostWithEvent(const Instance& instance, const Plan& plan,
                           UserId i, EventId j);

}  // namespace gepc

#endif  // GEPC_CORE_FEASIBILITY_H_
