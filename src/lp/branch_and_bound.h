#ifndef GEPC_LP_BRANCH_AND_BOUND_H_
#define GEPC_LP_BRANCH_AND_BOUND_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "lp/linear_program.h"
#include "lp/simplex.h"

namespace gepc {

/// Options for the 0/1 MIP solver.
struct MipOptions {
  /// Hard cap on explored branch-and-bound nodes.
  int64_t max_nodes = 100'000;
  SimplexOptions simplex;
};

struct MipSolution {
  double objective_value = 0.0;
  std::vector<double> x;
  int64_t explored_nodes = 0;
};

/// Solves `lp` with every variable additionally restricted to {0, 1} by
/// LP-relaxation branch-and-bound: solve the relaxation with the simplex,
/// branch on the most fractional variable (adding x = 0 / x = 1 rows),
/// bound with the relaxation objective. Generic substrate used to
/// cross-check the combinatorial exact GAP solver; exponential in the worst
/// case (kInternal once max_nodes is hit).
///
/// Returns kInfeasible when no 0/1 point satisfies the constraints.
Result<MipSolution> SolveBinaryMip(const LinearProgram& lp,
                                   const MipOptions& options = {});

}  // namespace gepc

#endif  // GEPC_LP_BRANCH_AND_BOUND_H_
