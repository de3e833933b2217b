#ifndef GEPC_IEP_TIME_CHANGE_H_
#define GEPC_IEP_TIME_CHANGE_H_

#include "core/instance.h"
#include "core/plan.h"
#include "core/types.h"
#include "iep/iep_result.h"

namespace gepc {

/// Algorithm 5 (ts/tt Changing) of Sec. IV-C. `instance` must already carry
/// e_j's new holding time; `plan` is repaired in place and the step's dif
/// and top-up additions are added into `report`.
///
///  1. Every attendee whose plan now conflicts with e_j drops it (uc_j
///     removals, each dif 1), and is re-offered other events.
///  2. If attendance fell below xi_j, other users are offered e_j in
///     decreasing utility order (pure additions, dif 0) up to eta_j.
///  3. If still short, Algorithm 4 transfers users from events with spare
///     attendees.
/// Approximation ratio (paper): 1 / ((uc_j + xi_j - n'_j)(Uc_max - 1)).
void ApplyTimeChange(const Instance& instance, EventId event, Plan* plan,
                     IepResult* report);

}  // namespace gepc

#endif  // GEPC_IEP_TIME_CHANGE_H_
