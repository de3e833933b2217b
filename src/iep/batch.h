#ifndef GEPC_IEP_BATCH_H_
#define GEPC_IEP_BATCH_H_

#include <vector>

#include "common/result.h"
#include "iep/planner.h"

namespace gepc {

/// How ApplyBatch schedules the operations of one batch.
enum class BatchMode {
  /// Paper semantics (Sec. II-B): run the incremental algorithm once per
  /// atomic operation, in the given order.
  kSequential,
  /// The Sec. VII future-work variant: reorder the batch so that
  /// capacity-freeing changes (eta decreases, budget cuts, lost interest)
  /// run first, structural changes (reschedules, moves, new events) second,
  /// demand increases (xi raises) third and relaxations last — then close
  /// with one global re-offer pass. Freed capacity is visible to the
  /// demand-raising repairs, which empirically lowers the total dif.
  kReordered,
};

/// Aggregate report of one batch; the final plan is planner->plan().
struct BatchResult {
  int64_t negative_impact = 0;      ///< summed dif over all repairs
  double total_utility = 0.0;
  int events_below_lower_bound = 0;
  int ops_applied = 0;
  int added_by_final_reoffer = 0;   ///< kReordered's closing pass
};

/// Applies `ops` to `planner` as one batch. Stops at the first operation
/// that fails validation (kInvalidArgument / kOutOfRange) and reports it;
/// operations before it remain applied (same as running them one by one).
Result<BatchResult> ApplyBatch(IncrementalPlanner* planner,
                               std::vector<AtomicOp> ops,
                               BatchMode mode = BatchMode::kSequential);

}  // namespace gepc

#endif  // GEPC_IEP_BATCH_H_
