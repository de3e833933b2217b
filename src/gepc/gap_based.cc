#include "gepc/gap_based.h"

#include <algorithm>

namespace gepc {

Result<XiGepcResult> SolveXiGepcGapBased(const Instance& instance,
                                         const CopyMap& copies,
                                         const GapBasedOptions& options) {
  GEPC_RETURN_IF_ERROR(instance.Validate());
  if (options.epsilon <= 0.0) {
    return Status::InvalidArgument("epsilon must be positive");
  }

  const int n = instance.num_users();
  const int num_copies = copies.num_copies();

  XiGepcResult result{CopyPlan(n, num_copies), {}};
  if (num_copies == 0) return result;  // no lower bounds to satisfy

  double mu_max = 0.0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < instance.num_events(); ++j) {
      mu_max = std::max(mu_max, instance.utility(i, j));
    }
  }
  if (mu_max <= 0.0) mu_max = 1.0;

  // GAP reduction of Sec. III-A: machines = users, jobs = event copies.
  GapInstance gap(n, num_copies);
  for (int i = 0; i < n; ++i) {
    gap.set_capacity(i, (2.0 + options.epsilon) * instance.user(i).budget);
  }
  for (int c = 0; c < num_copies; ++c) {
    const EventId j = copies.event_of(c);
    for (int i = 0; i < n; ++i) {
      const double mu = instance.utility(i, j);
      if (mu <= 0.0) continue;  // "will not or cannot attend"
      gap.SetPair(i, c,
                  2.0 * instance.UserEventDistance(i, j) + instance.event(j).fee,
                  1.0 - mu / mu_max);
    }
  }

  Result<GapAssignment> assignment = SolveGapShmoysTardos(gap, options.gap);
  if (!assignment.ok()) {
    if (assignment.status().code() == StatusCode::kInfeasible) {
      // Some copy has no eligible user at all, or the LP is over-tight;
      // surface the structured status so callers can fall back to greedy.
      return assignment.status();
    }
    return assignment.status();
  }

  for (int c = 0; c < num_copies; ++c) {
    const int user = assignment->machine_of_job[static_cast<size_t>(c)];
    if (user >= 0) result.copy_plan.Assign(user, c);
  }

  result.adjust_stats = AdjustConflicts(instance, copies, &result.copy_plan);
  return result;
}

}  // namespace gepc
