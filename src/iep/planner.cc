#include "iep/planner.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/feasibility.h"
#include "gepc/topup.h"
#include "iep/eta_decrease.h"
#include "iep/time_change.h"
#include "iep/xi_increase.h"

namespace gepc {

AtomicOp AtomicOp::UtilityChange(UserId user, EventId event, double utility) {
  AtomicOp op;
  op.kind = Kind::kUtilityChanged;
  op.user = user;
  op.event = event;
  op.new_utility = utility;
  return op;
}

AtomicOp AtomicOp::BudgetChange(UserId user, double budget) {
  AtomicOp op;
  op.kind = Kind::kBudgetChanged;
  op.user = user;
  op.new_budget = budget;
  return op;
}

AtomicOp AtomicOp::LowerBoundChange(EventId event, int xi) {
  AtomicOp op;
  op.kind = Kind::kLowerBoundChanged;
  op.event = event;
  op.new_bound = xi;
  return op;
}

AtomicOp AtomicOp::UpperBoundChange(EventId event, int eta) {
  AtomicOp op;
  op.kind = Kind::kUpperBoundChanged;
  op.event = event;
  op.new_bound = eta;
  return op;
}

AtomicOp AtomicOp::TimeChange(EventId event, Interval time) {
  AtomicOp op;
  op.kind = Kind::kTimeChanged;
  op.event = event;
  op.new_time = time;
  return op;
}

AtomicOp AtomicOp::LocationChange(EventId event, Point location) {
  AtomicOp op;
  op.kind = Kind::kLocationChanged;
  op.event = event;
  op.new_location = location;
  return op;
}

AtomicOp AtomicOp::NewEvent(Event event, std::vector<double> utilities) {
  AtomicOp op;
  op.kind = Kind::kNewEvent;
  op.new_event = event;
  op.new_event_utilities = std::move(utilities);
  return op;
}

Result<IncrementalPlanner> IncrementalPlanner::Create(Instance instance,
                                                      Plan plan) {
  GEPC_RETURN_IF_ERROR(instance.Validate());
  if (plan.num_users() != instance.num_users() ||
      plan.num_events() != instance.num_events()) {
    return Status::InvalidArgument("plan does not match the instance");
  }
  return IncrementalPlanner(std::move(instance), std::move(plan));
}

Status IncrementalPlanner::Mutate(const AtomicOp& op, Instance* instance,
                                  Plan* plan) {
  auto check_user = [&](UserId u) -> Status {
    if (u < 0 || u >= instance->num_users()) {
      return Status::OutOfRange("user id out of range");
    }
    return Status::OK();
  };
  auto check_event = [&](EventId e) -> Status {
    if (e < 0 || e >= instance->num_events()) {
      return Status::OutOfRange("event id out of range");
    }
    return Status::OK();
  };

  switch (op.kind) {
    case AtomicOp::Kind::kUtilityChanged:
      GEPC_RETURN_IF_ERROR(check_user(op.user));
      GEPC_RETURN_IF_ERROR(check_event(op.event));
      if (op.new_utility < 0.0) {
        return Status::InvalidArgument("utility must be non-negative");
      }
      instance->set_utility(op.user, op.event, op.new_utility);
      return Status::OK();
    case AtomicOp::Kind::kBudgetChanged:
      GEPC_RETURN_IF_ERROR(check_user(op.user));
      if (op.new_budget < 0.0) {
        return Status::InvalidArgument("budget must be non-negative");
      }
      instance->set_user_budget(op.user, op.new_budget);
      return Status::OK();
    case AtomicOp::Kind::kLowerBoundChanged:
      GEPC_RETURN_IF_ERROR(check_event(op.event));
      if (op.new_bound > instance->num_users()) {
        // Would leave the instance permanently infeasible — and, worse,
        // unbootable: Instance::Validate refuses xi > n, so a journaled
        // state with it could never be recovered after a crash.
        return Status::Infeasible(
            "lower bound exceeds the number of users");
      }
      return instance->set_event_bounds(op.event, op.new_bound,
                                        std::max(op.new_bound,
                                                 instance->event(op.event)
                                                     .upper_bound));
    case AtomicOp::Kind::kUpperBoundChanged:
      GEPC_RETURN_IF_ERROR(check_event(op.event));
      return instance->set_event_bounds(
          op.event,
          std::min(instance->event(op.event).lower_bound, op.new_bound),
          op.new_bound);
    case AtomicOp::Kind::kTimeChanged:
      GEPC_RETURN_IF_ERROR(check_event(op.event));
      return instance->set_event_time(op.event, op.new_time);
    case AtomicOp::Kind::kLocationChanged:
      GEPC_RETURN_IF_ERROR(check_event(op.event));
      instance->set_event_location(op.event, op.new_location);
      return Status::OK();
    case AtomicOp::Kind::kNewEvent: {
      if (static_cast<int>(op.new_event_utilities.size()) !=
          instance->num_users()) {
        return Status::InvalidArgument(
            "new event needs one utility per user");
      }
      for (double mu : op.new_event_utilities) {
        if (mu < 0.0) {
          return Status::InvalidArgument("utility must be non-negative");
        }
      }
      if (!op.new_event.IsValid()) {
        return Status::InvalidArgument("new event is malformed");
      }
      if (op.new_event.lower_bound > instance->num_users()) {
        return Status::Infeasible(
            "new event's lower bound exceeds the number of users");
      }
      const EventId id = instance->AddEvent(op.new_event,
                                            op.new_event_utilities);
      if (plan != nullptr) plan->EnsureEventCapacity(id + 1);
      return Status::OK();
    }
  }
  return Status::Internal("unhandled atomic operation kind");
}

Result<IepResult> IncrementalPlanner::Apply(const AtomicOp& op) {
  // Every branch decision below reads plan_ before its repair runs; the
  // mutation itself only grows plan_'s event dimension for a new event.
  GEPC_RETURN_IF_ERROR(Mutate(op, &instance_, &plan_));

  IepResult report;
  switch (op.kind) {
    case AtomicOp::Kind::kUpperBoundChanged:
      if (op.new_bound < plan_.attendance(op.event)) {
        ApplyEtaDecrease(instance_, op.event, &plan_, &report);  // Alg. 3
      } else {
        // eta increased: new room — pure re-offer of this event.
        std::vector<UserId> everyone;
        for (int i = 0; i < instance_.num_users(); ++i) everyone.push_back(i);
        report.added_by_topup = TopUpUsers(instance_, everyone, &plan_).added;
      }
      break;

    case AtomicOp::Kind::kLowerBoundChanged:
      // xi decreased (or still met): the repair finds the plan feasible
      // and leaves it unchanged.
      ApplyXiIncrease(instance_, op.event, &plan_, &report);  // Alg. 4
      break;

    case AtomicOp::Kind::kTimeChanged:
      ApplyTimeChange(instance_, op.event, &plan_, &report);  // Alg. 5
      break;

    case AtomicOp::Kind::kLocationChanged:
      // The move can bust attendee budgets; Algorithm 5's repair handles
      // budget-driven drops and refills the event.
      ApplyTimeChange(instance_, op.event, &plan_, &report);
      break;

    case AtomicOp::Kind::kNewEvent:
      // The paper reduces "new event" to raising its lower bound from 0 to
      // xi; Algorithm 5's offer-then-transfer path implements exactly that
      // on an event with no attendees yet.
      ApplyTimeChange(instance_, instance_.num_events() - 1, &plan_, &report);
      break;

    case AtomicOp::Kind::kUtilityChanged:
      if (op.new_utility <= 0.0 && plan_.Contains(op.user, op.event)) {
        // The user can no longer attend: drop it, re-offer them others,
        // and refill the event if it fell below xi (Alg. 5 tail).
        plan_.Remove(op.user, op.event);
        ++report.negative_impact;
        report.added_by_topup += TopUpUsers(instance_, {op.user}, &plan_).added;
        ApplyXiIncrease(instance_, op.event, &plan_, &report);
      } else if (op.new_utility > 0.0) {
        // Higher (or newly positive) interest: try adding the event.
        report.added_by_topup += TopUpUsers(instance_, {op.user}, &plan_).added;
      }
      break;

    case AtomicOp::Kind::kBudgetChanged: {
      std::vector<EventId> starved;
      // Shed lowest-utility events until the tour fits the new budget.
      while (UserTravelCost(instance_, plan_, op.user) >
             instance_.user(op.user).budget + kBudgetEpsilon) {
        const std::vector<EventId>& events = plan_.events_of(op.user);
        if (events.empty()) break;
        const EventId victim = *std::min_element(
            events.begin(), events.end(), [&](EventId a, EventId b) {
              return instance_.utility(op.user, a) <
                     instance_.utility(op.user, b);
            });
        plan_.Remove(op.user, victim);
        ++report.negative_impact;
        if (plan_.attendance(victim) < instance_.event(victim).lower_bound) {
          starved.push_back(victim);
        }
      }
      // A bigger budget (or freed time) may admit more events.
      report.added_by_topup += TopUpUsers(instance_, {op.user}, &plan_).added;
      // Refill events the sheds pushed below xi (Algorithm 4 per event).
      for (EventId j : starved) {
        ApplyXiIncrease(instance_, j, &plan_, &report);
      }
      break;
    }
  }

  report.total_utility = plan_.TotalUtility(instance_);
  report.events_below_lower_bound = plan_.CountEventsBelowLowerBound(instance_);
  return report;
}

int IncrementalPlanner::Reoffer() {
  return TopUpPlan(instance_, &plan_).added;
}

Result<GepcResult> IncrementalPlanner::ReSolve(const AtomicOp& op,
                                               const GepcOptions& options) const {
  Instance copy = instance_;
  GEPC_RETURN_IF_ERROR(Mutate(op, &copy, nullptr));
  return SolveGepc(copy, options);
}

}  // namespace gepc
