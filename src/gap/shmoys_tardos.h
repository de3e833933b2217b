#ifndef GEPC_GAP_SHMOYS_TARDOS_H_
#define GEPC_GAP_SHMOYS_TARDOS_H_

#include "common/result.h"
#include "gap/gap_instance.h"
#include "gap/gap_lp.h"

namespace gepc {

/// Rounds a fractional GAP solution to an integral assignment with the
/// Shmoys-Tardos [6] scheme:
///  1. each machine's fractional jobs are sorted by processing time
///     (largest first) and packed into ceil(sum x_ij) unit "slots";
///  2. the induced job/slot bipartite fractional matching is integral, so a
///     single min-cost-flow run yields an integral matching whose cost is
///     at most the fractional cost and whose per-machine load is at most
///     T_i + max_j p_ij (the (1, 2)-guarantee the paper's analysis uses).
/// Jobs the flow cannot match (only on degenerate inputs) get machine -1.
Result<GapAssignment> RoundFractional(const GapInstance& gap,
                                      const FractionalAssignment& fractional);

/// Which LP engine SolveGapShmoysTardos uses for the relaxation.
enum class GapLpEngine {
  /// Exact simplex below `auto_simplex_limit` candidate pairs, MWU above.
  kAuto,
  kSimplex,
  kMwu,
};

struct GapSolveOptions {
  GapLpEngine engine = GapLpEngine::kAuto;
  /// kAuto switches to MWU when (#eligible pairs after candidate capping)
  /// exceeds this, or when the dense simplex tableau would be too large
  /// (shmoys_tardos.cc).
  int64_t auto_simplex_limit = 200'000;
  GapLpOptions lp;
  GapMwuOptions mwu;
};

/// End-to-end GAP approximation: LP relaxation + Shmoys-Tardos rounding.
Result<GapAssignment> SolveGapShmoysTardos(const GapInstance& gap,
                                           const GapSolveOptions& options = {});

/// Baseline used in tests: each job greedily takes the cheapest machine with
/// remaining capacity (no guarantee). Jobs that fit nowhere get -1.
GapAssignment SolveGapGreedy(const GapInstance& gap);

}  // namespace gepc

#endif  // GEPC_GAP_SHMOYS_TARDOS_H_
