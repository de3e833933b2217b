#ifndef GEPC_GEPC_EXACT_H_
#define GEPC_GEPC_EXACT_H_

#include <cstdint>

#include "common/result.h"
#include "core/instance.h"
#include "core/plan.h"

namespace gepc {

/// Limits for the exact solver (GEPC is NP-hard — Theorem 1 — so this is
/// exponential and intended as a small-instance oracle for tests and for
/// measuring the approximation ratios empirically).
struct ExactOptions {
  /// Refuse instances with more users than this, or more than 14 events
  /// (kInvalidArgument).
  int max_users = 12;
  /// Abort the search beyond this many explored nodes (kInternal).
  int64_t max_nodes = 50'000'000;
};

struct ExactResult {
  /// True iff some plan satisfies all four constraints; when false the
  /// instance has unsatisfiable lower bounds and `plan` is empty.
  bool feasible = false;
  Plan plan;
  double total_utility = 0.0;
  int64_t explored_nodes = 0;
};

/// Exhaustive branch-and-bound over per-user feasible event subsets:
/// enumerates each user's conflict-free within-budget subsets, branches
/// user by user, prunes on an optimistic utility bound and on lower-bound
/// reachability, and returns the utility-optimal feasible plan.
Result<ExactResult> SolveGepcExact(const Instance& instance,
                                   const ExactOptions& options = {});

}  // namespace gepc

#endif  // GEPC_GEPC_EXACT_H_
