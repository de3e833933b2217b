#ifndef GEPC_IEP_ETA_DECREASE_H_
#define GEPC_IEP_ETA_DECREASE_H_

#include "core/instance.h"
#include "core/plan.h"
#include "core/types.h"
#include "iep/iep_result.h"

namespace gepc {

/// Algorithm 3 (eta Decreasing) of Sec. IV-A. `instance` must already carry
/// the decreased upper bound eta'_j; `plan` is repaired in place and the
/// step's dif and top-up additions are added into `report`.
///
/// If n_j <= eta'_j nothing changes (dif = 0). Otherwise the n_j - eta'_j
/// attendees with the smallest utility for e_j lose it (the minimum
/// possible dif), and those users are re-offered other events with the
/// [4]-style utility-ordered insertion, which only adds attendances.
/// Approximation ratio (paper): 1 / ((n_j - eta'_j)(Uc_max - 1)).
void ApplyEtaDecrease(const Instance& instance, EventId event, Plan* plan,
                      IepResult* report);

}  // namespace gepc

#endif  // GEPC_IEP_ETA_DECREASE_H_
