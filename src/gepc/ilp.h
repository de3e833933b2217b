#ifndef GEPC_GEPC_ILP_H_
#define GEPC_GEPC_ILP_H_

#include "common/result.h"
#include "core/instance.h"
#include "gepc/exact.h"
#include "lp/branch_and_bound.h"

namespace gepc {

/// Limits for the ILP formulation (exponential in events-per-user).
struct GepcIlpOptions {
  /// Refuse instances with more users than this, or more than 14 events
  /// (kInvalidArgument).
  int max_users = 12;
  MipOptions mip;
};

/// Exact GEPC via a set-packing integer program over per-user feasible
/// subsets: one 0/1 variable z_{i,S} per user i and feasible subset S
/// (conflict-free, within budget — enumerated by BuildUserMenu, which also
/// linearizes the non-linear tour-cost constraint away), with
///
///   sum_S z_{i,S} = 1                      for every user,
///   xi_j <= sum_{(i,S): j in S} z_{i,S} <= eta_j   for every event,
///   maximize sum utility(S) z_{i,S},
///
/// solved by the generic 0/1 branch-and-bound MIP on top of the simplex.
/// An independent second exact method: tests cross-check it against the
/// combinatorial SolveGepcExact.
Result<ExactResult> SolveGepcIlp(const Instance& instance,
                                 const GepcIlpOptions& options = {});

}  // namespace gepc

#endif  // GEPC_GEPC_ILP_H_
