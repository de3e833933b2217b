#ifndef GEPC_GAP_GAP_LP_H_
#define GEPC_GAP_GAP_LP_H_

#include <cstdint>

#include "common/result.h"
#include "gap/gap_instance.h"
#include "lp/simplex.h"

namespace gepc {

/// Options for the exact LP-relaxation engine.
struct GapLpOptions {
  /// Keep only the `max_candidates_per_job` cheapest eligible machines per
  /// job before building the LP (0 = keep all). Restriction keeps the dense
  /// simplex tractable at bench scale; if the restricted LP is infeasible
  /// the solver automatically retries unrestricted.
  int max_candidates_per_job = 0;
  SimplexOptions simplex;
};

/// Solves the GAP LP relaxation
///   min sum c_ij x_ij
///   s.t. sum_i x_ij = 1 (each job assigned), sum_j p_ij x_ij <= T_i,
///        x >= 0 over eligible pairs
/// exactly with the two-phase simplex. Returns the fractional assignment or
/// kInfeasible.
Result<FractionalAssignment> SolveGapLpSimplex(const GapInstance& gap,
                                               const GapLpOptions& options = {});

/// Options for the approximate engine.
struct GapMwuOptions {
  /// Subgradient / multiplicative-weight iterations.
  int iterations = 300;
  /// Restrict each job's oracle to its `max_candidates_per_job` cheapest
  /// eligible machines (0 = all); the oracle cost drops from
  /// O(jobs * machines) to O(jobs * cap) per iteration.
  int max_candidates_per_job = 32;
};

/// Approximately solves the same relaxation with a Lagrangian subgradient /
/// multiplicative-weights scheme in the spirit of the fractional
/// packing-covering framework of Plotkin-Shmoys-Tardos [5] that the paper's
/// GAP step cites: machine-load multipliers are raised on overloaded
/// machines, each job independently picks its cheapest penalized machine,
/// and the tail of the iterate sequence is averaged into a fractional
/// solution. Runs in O(iterations * machines * jobs) with no LP tableau, so
/// it scales far beyond the simplex engine; loads may overshoot T_i by a
/// small factor that the Shmoys-Tardos rounding guarantee absorbs.
Result<FractionalAssignment> SolveGapLpMwu(const GapInstance& gap,
                                           const GapMwuOptions& options = {});

}  // namespace gepc

#endif  // GEPC_GAP_GAP_LP_H_
