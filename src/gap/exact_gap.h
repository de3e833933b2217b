#ifndef GEPC_GAP_EXACT_GAP_H_
#define GEPC_GAP_EXACT_GAP_H_

#include <cstdint>

#include "common/result.h"
#include "gap/gap_instance.h"

namespace gepc {

/// Limits for the exact GAP solver (GAP is NP-hard; this is a small-scale
/// oracle for measuring the Shmoys-Tardos pipeline's real quality gap and
/// for tests). Instances with more than 16 machines are always refused.
struct ExactGapOptions {
  int max_jobs = 24;
  int64_t max_nodes = 50'000'000;
};

struct ExactGapResult {
  /// False iff no assignment fits every machine's capacity.
  bool feasible = false;
  GapAssignment assignment;
  double total_cost = 0.0;
  int64_t explored_nodes = 0;
};

/// Branch-and-bound over jobs (hardest-first ordering): each job tries its
/// eligible machines in cost order; pruning on the sum of per-job minimum
/// remaining costs. Returns the cost-optimal capacity-feasible assignment.
Result<ExactGapResult> SolveGapExact(const GapInstance& gap,
                                     const ExactGapOptions& options = {});

}  // namespace gepc

#endif  // GEPC_GAP_EXACT_GAP_H_
