#ifndef GEPC_SHARD_SHARDED_SOLVER_H_
#define GEPC_SHARD_SHARDED_SOLVER_H_

#include "common/result.h"
#include "core/instance.h"
#include "gepc/solver.h"
#include "shard/partition.h"

namespace gepc {

/// Options for the partition/solve/merge GEPC engine.
struct ShardedGepcOptions {
  /// Worker threads for the per-shard solves (clamped to >= 1). Thread
  /// count NEVER changes the result: shard s always draws its randomness
  /// from DeriveTaskSeed(gepc.greedy.seed, s).
  int threads = 1;
  /// Spatial shards to cut the instance into. shards <= 1 bypasses the
  /// partitioner entirely and runs the sequential SolveGepc, so the result
  /// is byte-identical to the sequential solver.
  int shards = 1;
  /// Per-shard two-step solver configuration (algorithm, top-up, ...).
  /// greedy.seed acts as the master seed of the per-shard streams.
  GepcOptions gepc;
};

/// What the partition/solve/merge pipeline did, for benches and tests.
struct ShardedGepcStats {
  int shards = 1;
  int interior_users = 0;
  int boundary_users = 0;
  /// Boundary attendances placed by the merge's min-cost-flow pass.
  int merge_flow_assigned = 0;
  /// Attendances added by the post-merge lower-bound repair pass.
  int lower_bound_repair_added = 0;
  /// Boundary attendances added by the closing top-up pass.
  int merge_topup_added = 0;
  /// Shards whose configured solve failed (error or injected fault) and
  /// were re-solved with the sequential greedy fallback. The merge still
  /// produces a feasible plan; utility degrades gracefully instead of the
  /// whole solve erroring out.
  int degraded_shards = 0;
  double partition_seconds = 0.0;
  double solve_seconds = 0.0;
  double merge_seconds = 0.0;
};

/// Solves GEPC by spatial decomposition: partition the instance into
/// `shards` sub-instances along grid cells (PartitionInstance), solve each
/// shard's GEPC independently on a thread pool, then merge:
///
///   1. splice the shard plans together (disjoint users/events, so the
///      union inherits feasibility),
///   2. fill lower-bound deficits with one min-cost max-flow from the
///      boundary users to the events still below xi_j (unit user arcs,
///      deficit-bounded event arcs, costs -mu — the most deficit units
///      filled, at the highest utility; augmentations are bounded by the
///      total deficit, not the boundary population),
///   3. repair events still below xi_j by offering them to every feasible
///      user in decreasing-utility order (the Conflict Adjusting
///      reassignment loop of Algorithm 1, run on the merged plan),
///   4. top up the boundary users' remaining capacity with the standard
///      utility-ordered pass (TopUpUsers).
///
/// The returned plan always satisfies constraints 1-3 (conflicts, budgets,
/// upper bounds); lower bounds are best-effort with the shortfall reported,
/// exactly like the sequential SolveGepc. Deterministic for a fixed
/// (instance, options.shards, options.gepc) regardless of options.threads.
///
/// Failure handling: a shard whose solve errors — including the injected
/// `shard.solve` fault — is re-solved sequentially with the greedy
/// algorithm (same derived seed), so one bad shard degrades utility instead
/// of failing the solve. `shard.slow` (delay-only) simulates a stalled
/// shard without changing the result.
///
/// Affinity: when options.gepc.local_search.affinity is armed (and
/// refine_with_local_search is on), per-shard solves run on plain mu —
/// shard-local user ids cannot index the global friendship graph — and the
/// merge finishes with one global affinity-aware RefinePlan pass, so the
/// reported affinity_utility stays close to the sequential solver's.
Result<GepcResult> SolveSharded(const Instance& instance,
                                const ShardedGepcOptions& options,
                                ShardedGepcStats* stats = nullptr);

}  // namespace gepc

#endif  // GEPC_SHARD_SHARDED_SOLVER_H_
