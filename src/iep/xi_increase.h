#ifndef GEPC_IEP_XI_INCREASE_H_
#define GEPC_IEP_XI_INCREASE_H_

#include "core/instance.h"
#include "core/plan.h"
#include "core/types.h"
#include "iep/iep_result.h"

namespace gepc {

/// Algorithm 4 (xi Increasing) of Sec. IV-B. `instance` must already carry
/// the increased lower bound xi'_j; `plan` is repaired in place and the
/// step's dif and top-up additions are added into `report`.
///
/// If n_j >= xi'_j nothing changes. Otherwise users are transferred to e_j
/// from events with spare attendees (n_j' > xi_j'): a max-heap over the
/// utility deltas Delta = mu(u_i, e_j) - mu(u_i, e_j') repeatedly yields
/// the cheapest transfer; a transfer is taken when swapping e_j' -> e_j in
/// u_i's plan stays conflict-free and within budget (and e_j has capacity).
/// Each transfer costs dif 1; transferred users are then re-offered other
/// events with the [4]-style insertion. If the heap drains before xi'_j is
/// reached the event keeps a reported shortfall — the paper's algorithms
/// are best-effort in the same way.
/// Approximation ratio (paper): 1 / ((xi'_j - n_j)(Uc_max - 2)).
void ApplyXiIncrease(const Instance& instance, EventId event, Plan* plan,
                     IepResult* report);

}  // namespace gepc

#endif  // GEPC_IEP_XI_INCREASE_H_
