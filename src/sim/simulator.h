#ifndef GEPC_SIM_SIMULATOR_H_
#define GEPC_SIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "data/friendship.h"
#include "data/generator.h"
#include "gepc/solver.h"
#include "iep/planner.h"

namespace gepc {

/// Configuration of a multi-day EBSN platform simulation.
///
/// The introduction's setting: every day the platform computes a "Plan for
/// Today", and between plans the world drifts — organizers announce new
/// events, reschedule, shrink venues or raise minimum headcounts; users
/// lose interest or change travel budgets. The simulator generates that
/// drift as streams of atomic operations (Sec. II-B) and maintains the
/// global plan either incrementally (IEP) or by re-planning from scratch.
struct SimulationConfig {
  /// Day-0 city.
  GeneratorConfig base;

  int num_days = 7;

  /// New events announced per day.
  int new_events_per_day = 1;

  /// Scheduling scenario: when > 0, each day's new events arrive as DRAFTS
  /// with this many candidate (slot, venue) pairs, and the organizer-side
  /// scheduler (src/sched) picks the placement — oracle-scored, affinity-
  /// aware when affinity_lambda is armed — before the NewEvent op is
  /// applied. 0 (default) keeps the legacy direct-placement drift.
  int candidates_per_new_event = 0;

  /// Probability, per user per day, that the user's availability shrinks
  /// to a random sub-window of the day (expands to utility-zero ops per the
  /// paper's Sec. II-B example). Off by default.
  double p_availability_shrink = 0.0;

  /// Planner driving day 0 (and the Re-solve mode).
  GepcOptions planner;

  /// true: maintain the plan with the incremental algorithms (IEP);
  /// false: re-solve from scratch after each day's drift (the baseline).
  bool incremental = true;

  /// Affinity scenario: when non-zero, a seeded friendship graph
  /// (config.friendship) is generated over the day-0 users and plans are
  /// scored with mu' = mu + lambda * friends-attending. Day-0 and re-solve
  /// planning thread the affinity through RefinePlan (when
  /// planner.refine_with_local_search is on), and incremental days finish
  /// with an affinity-aware refine pass. 0 (default) is byte-identical to
  /// the plain simulation.
  double affinity_lambda = 0.0;
  FriendshipConfig friendship;

  uint64_t seed = 1;
};

/// Metrics of one simulated day (after its drift was absorbed).
struct DayMetrics {
  int day = 0;
  int ops = 0;                      ///< atomic operations that day
  double total_utility = 0.0;
  double effective_utility = 0.0;   ///< utility on events at/above xi
  int events_below_lower_bound = 0;
  int64_t negative_impact = 0;      ///< dif accumulated that day
  double plan_seconds = 0.0;        ///< time spent repairing / re-solving
  /// Affinity-aware utility (== total_utility when affinity_lambda == 0).
  double affinity_utility = 0.0;
};

struct SimulationResult {
  std::vector<DayMetrics> days;
  int64_t total_negative_impact = 0;
  double final_utility = 0.0;
  /// Final day's affinity-aware utility (== final_utility when unarmed).
  double final_affinity_utility = 0.0;
  double total_plan_seconds = 0.0;
};

/// Runs the whole simulation. Deterministic per config (seeded).
Result<SimulationResult> RunSimulation(const SimulationConfig& config);

}  // namespace gepc

#endif  // GEPC_SIM_SIMULATOR_H_
