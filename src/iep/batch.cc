#include "iep/batch.h"

#include <algorithm>

namespace gepc {

namespace {

/// Scheduling phase of an operation under kReordered; lower runs earlier.
/// Classification compares against the instance state at batch start — a
/// heuristic, since earlier ops can flip a later op's direction, but the
/// repairs themselves are direction-aware so correctness never depends on
/// the classification.
int Phase(const Instance& instance, const AtomicOp& op) {
  switch (op.kind) {
    case AtomicOp::Kind::kUpperBoundChanged:
      return op.new_bound < instance.event(op.event).upper_bound ? 0 : 3;
    case AtomicOp::Kind::kBudgetChanged:
      return op.new_budget < instance.user(op.user).budget ? 0 : 3;
    case AtomicOp::Kind::kUtilityChanged:
      return op.new_utility < instance.utility(op.user, op.event) ? 0 : 3;
    case AtomicOp::Kind::kTimeChanged:
    case AtomicOp::Kind::kLocationChanged:
      return 1;
    case AtomicOp::Kind::kNewEvent:
      return 2;
    case AtomicOp::Kind::kLowerBoundChanged:
      return op.new_bound > instance.event(op.event).lower_bound ? 2 : 3;
  }
  return 3;
}

}  // namespace

Result<BatchResult> ApplyBatch(IncrementalPlanner* planner,
                               std::vector<AtomicOp> ops, BatchMode mode) {
  if (planner == nullptr) {
    return Status::InvalidArgument("planner must not be null");
  }

  if (mode == BatchMode::kReordered) {
    const Instance& at_start = planner->instance();
    std::stable_sort(ops.begin(), ops.end(),
                     [&](const AtomicOp& a, const AtomicOp& b) {
                       return Phase(at_start, a) < Phase(at_start, b);
                     });
  }

  BatchResult batch;
  for (const AtomicOp& op : ops) {
    GEPC_ASSIGN_OR_RETURN(IepResult step, planner->Apply(op));
    batch.negative_impact += step.negative_impact;
    ++batch.ops_applied;
  }

  if (mode == BatchMode::kReordered) {
    // Closing sweep: capacity freed by early ops that no later repair
    // claimed gets re-offered globally (additions only, dif 0).
    batch.added_by_final_reoffer = planner->Reoffer();
  }

  batch.total_utility = planner->plan().TotalUtility(planner->instance());
  batch.events_below_lower_bound =
      planner->plan().CountEventsBelowLowerBound(planner->instance());
  return batch;
}

}  // namespace gepc
