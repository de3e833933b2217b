#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/instance.h"
#include "core/plan.h"
#include "gepc/solver.h"
#include "ops.h"
#include "util.h"

namespace perfbench {

/// Every workload runs on fixed datasets, as the paper's evaluation runs on
/// fixed real cities: the cities are generated and solved with this seed,
/// the serving workloads pick their eta-decrease events with it, and --seed
/// drives the traffic and the op streams. With seeded cities, figures such
/// as the initial utility or the GAP solve time moved by up to ±25% between
/// seeds; with seeded solves and event picks, the repair figures moved by
/// up to ±15%, for reasons unrelated to the code.
inline constexpr uint64_t kDatasetSeed = 1;

/// Flags every workload receives.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir;
};

/// The initial state a serving stack starts from, and how long its solve
/// took.
struct InitialState {
  gepc::Instance instance;
  gepc::Plan plan;
  double solve_s = 0.0;
  double utility = 0.0;
  /// The options SolveGepc produced `plan` with; the traced run checks
  /// that replaying the solve's phases reproduces it. Empty when the plan
  /// did not come from one solve.
  std::optional<gepc::GepcOptions> solved_with;
};

struct ServingConfig {
  /// Generates and solves the initial state; called once per set-up.
  std::function<gepc::Result<InitialState>()> make_state;
  /// Open-loop phase (the first half of the run): Poisson arrivals at
  /// `open_rate` per second, `write_fraction` of them writes. The second
  /// half is the closed-loop saturation phase, writes only.
  double open_rate = 100.0;
  double write_fraction = 0.3;
  std::vector<OpKind> mix;
  /// ServiceOptions knobs: <= 1 disables the shard tracker, 0 disables
  /// periodic checkpoints.
  int rebalance_shards = 0;
  int checkpoint_every = 0;
  /// Set-ups per run; the last one serves the measured phases.
  int setups = 3;
};

/// Runs a serving workload: set up the primary (journal, checkpoints,
/// NetServer + CommandDispatcher, ReplicationSource) and a live follower
/// over loopback, drive the open-loop then the closed-loop phase, drain,
/// and check the gates. Untraced runs fill report->end_to_end; traced runs
/// fill report->per_layer.
void RunServing(const ServingConfig& config, const RunOptions& options,
                RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
