#ifndef GEPC_IEP_IEP_RESULT_H_
#define GEPC_IEP_IEP_RESULT_H_

#include <cstdint>

namespace gepc {

/// Report of one incremental re-planning step (Sec. IV). The IEP objective
/// (Definition 2) maximizes utility subject to minimum negative impact
/// dif(P, P'). The repairs edit the plan in place and add their counts into
/// the caller's report, so a chained repair (Alg. 5 -> Alg. 4, a budget cut
/// -> Alg. 4 per starved event) accumulates into one report.
struct IepResult {
  /// dif(P, P') = sum_i |P_i \ P'_i|, counted per removal.
  int64_t negative_impact = 0;
  /// Filled once from the final plan by IncrementalPlanner::Apply.
  double total_utility = 0.0;
  /// Events left below their lower bound (shortfall; 0 when the update was
  /// fully repairable). Filled by IncrementalPlanner::Apply.
  int events_below_lower_bound = 0;
  /// Attendances added by the closing top-up ([4]-style re-offers), which
  /// never contribute negative impact.
  int added_by_topup = 0;
};

}  // namespace gepc

#endif  // GEPC_IEP_IEP_RESULT_H_
