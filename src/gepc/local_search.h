#ifndef GEPC_GEPC_LOCAL_SEARCH_H_
#define GEPC_GEPC_LOCAL_SEARCH_H_

#include <cstdint>

#include "common/result.h"
#include "core/instance.h"
#include "core/plan.h"
#include "gepc/affinity.h"

namespace gepc {

/// Options for the local-search refiner.
struct LocalSearchOptions {
  /// Stop after this many full passes without an improving move.
  int max_passes = 8;
  /// Hard cap on accepted moves (0 = unlimited).
  int64_t max_moves = 0;
  /// Enable the three move families independently (for ablations).
  bool enable_add = true;
  bool enable_replace = true;
  bool enable_transfer = true;
  /// When armed, moves are scored by the affinity-aware utility
  /// mu'(u, e) = mu(u, e) + lambda * friends-attending (affinity.h), which
  /// makes gains assignment-dependent. Unarmed behaviour is byte-identical
  /// to the plain refiner. The graph must cover instance.num_users().
  AffinityParams affinity;
};

/// What one RefinePlan run did.
struct LocalSearchStats {
  int64_t add_moves = 0;       ///< event inserted into a user's plan
  int64_t replace_moves = 0;   ///< user swapped one event for a better one
  int64_t transfer_moves = 0;  ///< attendance moved to a higher-mu user
  int passes = 0;
  double utility_gain = 0.0;
};

/// Hill-climbs `plan`'s total utility with feasibility-preserving moves:
///
///  * ADD      — insert (u, e) with mu > 0 where capacity/conflicts/budget
///               allow (the top-up move, re-run to fixpoint);
///  * REPLACE  — within one user, drop event a for event b with
///               mu(u, b) > mu(u, a), if b fits after removing a and a's
///               event stays at/above its lower bound;
///  * TRANSFER — move an attendance of event e from user u to user v with
///               mu(v, e) > mu(u, e) (attendance count unchanged, so both
///               bounds stay satisfied).
///
/// Every accepted move strictly increases the (affinity-aware, if armed)
/// total utility, so the search terminates. The refined plan keeps
/// constraints 1-3 and never lowers any event below a lower bound it
/// already met. This is a post-processing step the paper does not have —
/// an extension evaluated by bench_ablation.
Result<LocalSearchStats> RefinePlan(const Instance& instance, Plan* plan,
                                    const LocalSearchOptions& options = {});

}  // namespace gepc

#endif  // GEPC_GEPC_LOCAL_SEARCH_H_
