#ifndef PERFBENCH_OPS_H_
#define PERFBENCH_OPS_H_

#include <array>
#include <deque>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/instance.h"
#include "core/plan.h"
#include "iep/planner.h"

namespace perfbench {

/// The atomic-op kinds the benchmark reports on, named by what they do to
/// the current state (an eta op that raises eta is kEtaUp, and so on).
enum class OpKind { kMu, kBudget, kEtaUp, kEtaDown, kXiUp, kXiDown, kTime, kNewEvent };
inline constexpr int kNumKinds = 8;
inline constexpr std::array<OpKind, kNumKinds> kAllKinds = {
    OpKind::kMu,   OpKind::kBudget, OpKind::kEtaUp, OpKind::kEtaDown,
    OpKind::kXiUp, OpKind::kXiDown, OpKind::kTime,  OpKind::kNewEvent};

const char* KindName(OpKind kind);

/// The kind `op` has against `before`, the instance it is applied to.
OpKind ClassifyOp(const gepc::Instance& before, const gepc::AtomicOp& op);

/// Renders `op` as the compact spec ParseOpSpec reads, with every double at
/// full round-trip precision. New events have no spec and render as "".
std::string OpSpec(const gepc::AtomicOp& op);

/// Write stream for the serving workloads. Every op it makes is valid in
/// any apply order: ids are in range, utilities, budgets and bounds are
/// non-negative, xi never exceeds the user count and times keep start <
/// end. So any refused or failed write is a real failure.
///
/// Events are split in two halves. Eta decreases only ever target the
/// first half (events attended by at least 8), and each one goes below the
/// event's attendance so that it takes Algorithm 3. When the mix has eta
/// increases (serve_small), every eta draw keeps half of those events
/// lowered: it lowers the next event at its original bound while fewer
/// than half are lowered, and otherwise restores the longest-lowered one
/// to its original bound, which re-offers the event and usually refills it
/// before its next decrease. Increases and decreases so alternate, and the
/// state does not drift with the seed's run of kinds. Without eta
/// increases (serve_big) an event lowered again is halved again, which
/// keeps cutting its attendance for about log2(attendance) passes over the
/// half, at least three. Every other event op targets the second half.
class ServingOpSource {
 public:
  /// `pool_seed` splits the events into the two halves; `seed` drives
  /// the kinds, targets and values of the ops.
  ServingOpSource(const gepc::Instance& instance, const gepc::Plan& plan,
                  std::vector<OpKind> mix, uint64_t pool_seed, uint64_t seed);

  /// Next write, as its compact spec.
  std::string Next();

  /// Events eta decreases target.
  size_t eta_pool_size() const { return ready_.size() + lowered_.size(); }

 private:
  std::string EtaDown();
  std::string EtaUp(gepc::EventId fallback);

  const gepc::Instance& instance_;
  std::vector<int> attendance_;
  /// The upper bound this source last sent, per event.
  std::vector<int> eta_;
  std::vector<OpKind> mix_;
  /// Whether the mix has eta increases, which restore lowered events.
  bool restores_;
  /// Eta-pool events at their original bound, and those below it, each in
  /// the order they got there.
  std::deque<gepc::EventId> ready_;
  std::deque<gepc::EventId> lowered_;
  std::vector<gepc::EventId> other_pool_;
  gepc::Rng rng_;
};

/// One op of `kind` against the planner's current state, for the offline
/// sequence: an eta decrease goes below the event's attendance
/// (Algorithm 3), an xi increase goes above it (Algorithm 4), a time change
/// shifts the event (Algorithm 5).
gepc::AtomicOp MakeOfflineOp(OpKind kind, const gepc::Instance& instance,
                             const gepc::Plan& plan, gepc::Rng* rng);

}  // namespace perfbench

#endif  // PERFBENCH_OPS_H_
