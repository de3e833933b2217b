#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <array>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/instance.h"
#include "core/plan.h"
#include "gepc/solver.h"
#include "iep/planner.h"
#include "ops.h"
#include "shard/rebalance.h"
#include "util.h"

namespace perfbench {

/// Apply time and dif of every op, overall and by kind, as replayed
/// through IncrementalPlanner::Apply.
class IepRecorder {
 public:
  void Add(OpKind kind, double ms, int64_t dif);
  bool Has(OpKind kind) const {
    return !ms_[static_cast<size_t>(kind)].empty();
  }
  const std::vector<double>& all_ms() const { return all_ms_; }
  double MeanDif() const;
  /// iep.<kind>_ms (median) and iep.<kind>_dif (mean) for all eight kinds.
  void AddLayers(MetricSet* out) const;

 private:
  std::array<std::vector<double>, kNumKinds> ms_;
  std::array<std::vector<double>, kNumKinds> dif_;
  std::vector<double> all_ms_;
  std::vector<double> all_dif_;
};

/// Applies `op` to `planner`, timing the call, and records it. With a
/// tracker, also times the routing and migration the service runs after
/// each applied op (RouteOp + ApplyMigration) into `track_us`.
gepc::Status TimedApply(gepc::IncrementalPlanner* planner,
                        const gepc::AtomicOp& op, IepRecorder* recorder,
                        gepc::ShardTracker* tracker,
                        std::vector<double>* track_us);

/// SolveGepc's public steps run one by one (CopyMap, the xi-GEPC
/// algorithm, CollapseToPlan, TopUpPlan), each timed. `plan` must equal
/// SolveGepc's plan byte for byte. With `refine`, RefinePlan also runs on a
/// copy of that plan and is timed; the paper presets do not refine, so it
/// stays out of the comparison.
struct PhaseReplay {
  gepc::Plan plan;
  double copies_ms = 0.0;
  double xi_ms = 0.0;
  double topup_ms = 0.0;
  double refine_ms = 0.0;
};
gepc::Result<PhaseReplay> ReplaySolvePhases(const gepc::Instance& instance,
                                            const gepc::GepcOptions& options,
                                            bool refine);

/// Canonical bytes of a plan, for byte-identity gates.
std::string PlanBytes(const gepc::Plan& plan);

/// net.*: FrameDecoder and EncodeFrame over the recorded request and
/// response payloads, raw and with GLZ1 compression allowed.
void AddNetLayers(const std::vector<std::string>& requests,
                  const std::vector<std::string>& responses, MetricSet* out);

/// journal.append_us: Journal::Append of `ops` on a scratch journal in `dir`.
gepc::Status AddJournalLayer(const std::vector<gepc::AtomicOp>& ops,
                             const std::string& dir, MetricSet* out);

/// snapshot.publish_ms (MakeServiceSnapshot) and ckpt.write_ms
/// (WriteCheckpoint into a scratch directory under `dir`) on one state.
gepc::Status AddStateLayers(const gepc::Instance& instance,
                            const gepc::Plan& plan, uint64_t version,
                            const std::string& dir, MetricSet* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
