#ifndef GEPC_GEPC_GAP_BASED_H_
#define GEPC_GEPC_GAP_BASED_H_

#include "common/result.h"
#include "core/instance.h"
#include "gap/shmoys_tardos.h"
#include "gepc/conflict_adjust.h"
#include "gepc/event_copies.h"

namespace gepc {

/// Options for the GAP-based xi-GEPC algorithm (Sec. III-A).
struct GapBasedOptions {
  /// The eps of the reduction's budget relaxation T_i = (2 + eps) B_i.
  double epsilon = 0.1;
  GapSolveOptions gap;
};

/// Result of one xi-GEPC solve (both algorithms produce this shape).
struct XiGepcResult {
  CopyPlan copy_plan;
  ConflictAdjustStats adjust_stats;  // zeros for the greedy algorithm
};

/// The GAP-based approximation of Sec. III-A:
///   1. copy each event xi_j times (CopyMap);
///   2. reduce to GAP with p = 2 d(u_i, e_j), T_i = (2+eps) B_i,
///      c = 1 - mu(u_i, e_j)/mu_max, ineligible when mu = 0;
///   3. solve the GAP LP relaxation and round with Shmoys-Tardos [5][6];
///   4. run Conflict Adjusting (Algorithm 1) to repair time conflicts and
///      budget overshoot.
/// Approximation ratio (paper): 1/(Uc_max - 1) - O(eps).
Result<XiGepcResult> SolveXiGepcGapBased(const Instance& instance,
                                         const CopyMap& copies,
                                         const GapBasedOptions& options = {});

}  // namespace gepc

#endif  // GEPC_GEPC_GAP_BASED_H_
