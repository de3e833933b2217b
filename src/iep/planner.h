#ifndef GEPC_IEP_PLANNER_H_
#define GEPC_IEP_PLANNER_H_

#include <vector>

#include "common/result.h"
#include "core/instance.h"
#include "core/plan.h"
#include "gepc/solver.h"
#include "iep/iep_result.h"

namespace gepc {

/// One of the paper's atomic operations (Sec. II-B / IV). Exactly the
/// fields relevant to `kind` are read.
struct AtomicOp {
  enum class Kind {
    kUtilityChanged,     ///< mu(user, event) := new_utility
    kBudgetChanged,      ///< B_user := new_budget
    kLowerBoundChanged,  ///< xi_event := new_bound
    kUpperBoundChanged,  ///< eta_event := new_bound
    kTimeChanged,        ///< (ts, tt)_event := new_time
    kLocationChanged,    ///< l_event := new_location
    kNewEvent,           ///< append new_event with new_event_utilities
  };

  Kind kind;
  UserId user = kInvalidUser;
  EventId event = kInvalidEvent;
  double new_utility = 0.0;
  double new_budget = 0.0;
  int new_bound = 0;
  Interval new_time;
  Point new_location;
  Event new_event;
  std::vector<double> new_event_utilities;

  // Convenience constructors.
  static AtomicOp UtilityChange(UserId user, EventId event, double utility);
  static AtomicOp BudgetChange(UserId user, double budget);
  static AtomicOp LowerBoundChange(EventId event, int xi);
  static AtomicOp UpperBoundChange(EventId event, int eta);
  static AtomicOp TimeChange(EventId event, Interval time);
  static AtomicOp LocationChange(EventId event, Point location);
  static AtomicOp NewEvent(Event event, std::vector<double> utilities);
};

/// Maintains a live (instance, plan) pair and applies atomic operations
/// incrementally (Sec. IV). Every operation is reduced to one of the three
/// core repairs — Algorithm 3 (eta decreased), Algorithm 4 (xi increased),
/// Algorithm 5 (time changed) — exactly as the paper argues suffices:
///
///  * eta decreased            -> Algorithm 3
///  * xi increased             -> Algorithm 4
///  * ts/tt changed            -> Algorithm 5
///  * eta increased            -> pure re-offer of the event (additions only)
///  * xi decreased             -> plan unchanged (still feasible)
///  * new event                -> append, then "xi raised from 0" (Alg. 4
///                                path via the Algorithm 5 offer+transfer)
///  * location changed         -> Algorithm 5's repair (budget-driven drops)
///  * utility changed          -> drop if zeroed, otherwise re-offer
///  * budget changed           -> shed to fit if decreased (+ Alg. 4 repair
///                                of events pushed below xi), re-offer if
///                                increased
class IncrementalPlanner {
 public:
  /// Takes the current EBSN state and its plan (normally a SolveGepc
  /// output). Returns kInvalidArgument if the plan does not match.
  static Result<IncrementalPlanner> Create(Instance instance, Plan plan);

  const Instance& instance() const { return instance_; }
  const Plan& plan() const { return plan_; }

  /// Applies `op` to the instance, repairs the planner's plan in place, and
  /// returns the step's report (dif, utility, shortfall). A rejected op
  /// leaves both untouched.
  Result<IepResult> Apply(const AtomicOp& op);

  /// Runs one global utility-ordered re-offer pass over all users
  /// (additions only, so dif 0) on the current plan; returns the number of
  /// attendances added. Used by ApplyBatch's closing sweep.
  int Reoffer();

  /// Baselines of Sec. V-C: apply `op` to a copy of the instance and
  /// re-solve from scratch with the given algorithm (Re-GAP / Re-Greedy).
  /// Does not advance the planner's state.
  Result<GepcResult> ReSolve(const AtomicOp& op, const GepcOptions& options) const;

 private:
  IncrementalPlanner(Instance instance, Plan plan)
      : instance_(std::move(instance)), plan_(std::move(plan)) {}

  /// Applies `op`'s mutation to `instance` (shared by Apply and ReSolve).
  static Status Mutate(const AtomicOp& op, Instance* instance, Plan* plan);

  Instance instance_;
  Plan plan_;
};

}  // namespace gepc

#endif  // GEPC_IEP_PLANNER_H_
