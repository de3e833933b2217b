#include "sim/simulator.h"

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/timer.h"
#include "gepc/baselines.h"
#include "iep/availability.h"
#include "sched/schedule.h"

namespace gepc {

namespace {

/// Organizer-side drift, per existing event per day.
constexpr double kPTimeShift = 0.10;
constexpr double kPEtaShrink = 0.05;
constexpr double kPXiRaise = 0.05;

/// User-side drift, per user per day.
constexpr double kPInterestLoss = 0.03;  ///< zero one positive utility
constexpr double kPBudgetChange = 0.05;  ///< rescale budget by U[0.6, 1.4]

/// One day's drift as atomic operations against the current instance.
std::vector<AtomicOp> DriftOps(const Instance& instance,
                               const SimulationConfig& config,
                               const AffinityParams& affinity, Rng* rng) {
  std::vector<AtomicOp> ops;

  for (int j = 0; j < instance.num_events(); ++j) {
    const Event& e = instance.event(j);
    if (rng->Bernoulli(kPTimeShift)) {
      const Minutes shift =
          static_cast<Minutes>(rng->UniformInt(30, 120)) *
          (rng->Bernoulli(0.5) ? 1 : -1);
      ops.push_back(AtomicOp::TimeChange(
          j, {e.time.start + shift, e.time.end + shift}));
    }
    if (rng->Bernoulli(kPEtaShrink) && e.upper_bound > 1) {
      ops.push_back(AtomicOp::UpperBoundChange(
          j, std::max(1, e.upper_bound -
                             static_cast<int>(rng->UniformInt(1, 3)))));
    }
    if (rng->Bernoulli(kPXiRaise) && e.lower_bound < e.upper_bound) {
      ops.push_back(AtomicOp::LowerBoundChange(
          j, std::min(e.upper_bound,
                      e.lower_bound + static_cast<int>(rng->UniformInt(1, 2)))));
    }
  }

  for (int i = 0; i < instance.num_users(); ++i) {
    if (rng->Bernoulli(kPInterestLoss)) {
      // Zero one currently-positive utility (availability change).
      std::vector<EventId> positive;
      for (int j = 0; j < instance.num_events(); ++j) {
        if (instance.utility(i, j) > 0.0) positive.push_back(j);
      }
      if (!positive.empty()) {
        const EventId j = positive[static_cast<size_t>(
            rng->UniformUint64(positive.size()))];
        ops.push_back(AtomicOp::UtilityChange(i, j, 0.0));
      }
    }
    if (rng->Bernoulli(kPBudgetChange)) {
      ops.push_back(AtomicOp::BudgetChange(
          i, instance.user(i).budget * rng->UniformDouble(0.6, 1.4)));
    }
    if (rng->Bernoulli(config.p_availability_shrink)) {
      // Find the day's span from the events and keep a random sub-window.
      Minutes lo = 0;
      Minutes hi = 1;
      for (int j = 0; j < instance.num_events(); ++j) {
        lo = std::min(lo, instance.event(j).time.start);
        hi = std::max(hi, instance.event(j).time.end);
      }
      const Minutes start =
          static_cast<Minutes>(rng->UniformInt(lo, (lo + hi) / 2));
      const Minutes end =
          static_cast<Minutes>(rng->UniformInt((lo + hi) / 2 + 1, hi));
      for (AtomicOp& op :
           AvailabilityChangeOps(instance, i, {start, end})) {
        ops.push_back(std::move(op));
      }
    }
  }

  if (config.candidates_per_new_event > 0 && config.new_events_per_day > 0) {
    // Scheduling drift: the day's new events arrive as drafts with
    // candidate (slot, venue) pairs, and the organizer-side scheduler
    // (oracle-scored, affinity-aware when armed) picks the placement.
    ScheduleProblem problem;
    problem.users = instance.users();
    for (int k = 0; k < config.new_events_per_day; ++k) {
      DraftEvent draft;
      draft.interest.reserve(static_cast<size_t>(instance.num_users()));
      for (int i = 0; i < instance.num_users(); ++i) {
        draft.interest.push_back(rng->Bernoulli(0.4) ? rng->UniformDouble()
                                                     : 0.0);
      }
      draft.lower_bound =
          static_cast<int>(rng->UniformDouble(0.0, config.base.mean_xi));
      for (int c = 0; c < config.candidates_per_new_event; ++c) {
        ScheduleCandidate cand;
        cand.venue = {rng->UniformDouble(0.0, config.base.city_width),
                      rng->UniformDouble(0.0, config.base.city_height)};
        cand.capacity = std::max(
            1, static_cast<int>(rng->UniformDouble(0.5, 1.5) *
                                config.base.mean_eta));
        const Minutes start = static_cast<Minutes>(rng->UniformInt(0, 700));
        cand.slot = {start,
                     start + static_cast<Minutes>(rng->UniformInt(30, 150))};
        draft.candidates.push_back(cand);
      }
      problem.drafts.push_back(std::move(draft));
    }
    ScheduleOptions sched;
    sched.seed = rng->NextUint64();
    sched.affinity = affinity;
    const Result<ScheduleResult> scheduled = SolveSchedule(problem, sched);
    if (scheduled.ok()) {
      for (size_t d = 0; d < problem.drafts.size(); ++d) {
        const int c = scheduled->choice[d];
        if (c < 0) continue;  // every candidate fault-skipped
        const DraftEvent& draft = problem.drafts[d];
        const ScheduleCandidate& cand =
            draft.candidates[static_cast<size_t>(c)];
        Event fresh;
        fresh.location = cand.venue;
        fresh.upper_bound = cand.capacity;
        fresh.lower_bound = std::min(draft.lower_bound, cand.capacity);
        fresh.time = cand.slot;
        ops.push_back(AtomicOp::NewEvent(fresh, draft.interest));
      }
    }
    return ops;
  }

  for (int k = 0; k < config.new_events_per_day; ++k) {
    Event fresh;
    fresh.location = {rng->UniformDouble(0.0, config.base.city_width),
                      rng->UniformDouble(0.0, config.base.city_height)};
    fresh.upper_bound = std::max(
        1, static_cast<int>(rng->UniformDouble(0.5, 1.5) *
                            config.base.mean_eta));
    fresh.lower_bound = std::min(
        fresh.upper_bound,
        static_cast<int>(rng->UniformDouble(0.0, config.base.mean_xi)));
    const Minutes start = static_cast<Minutes>(rng->UniformInt(0, 700));
    fresh.time = {start,
                  start + static_cast<Minutes>(rng->UniformInt(30, 150))};
    std::vector<double> utilities;
    utilities.reserve(static_cast<size_t>(instance.num_users()));
    for (int i = 0; i < instance.num_users(); ++i) {
      utilities.push_back(rng->Bernoulli(0.4) ? rng->UniformDouble() : 0.0);
    }
    ops.push_back(AtomicOp::NewEvent(fresh, std::move(utilities)));
  }
  return ops;
}

DayMetrics Snapshot(int day, const Instance& instance, const Plan& plan,
                    const AffinityParams& affinity) {
  DayMetrics metrics;
  metrics.day = day;
  metrics.total_utility = plan.TotalUtility(instance);
  metrics.effective_utility = EffectiveUtility(instance, plan);
  metrics.affinity_utility = affinity.Armed()
                                 ? AffinityUtility(instance, plan, affinity)
                                 : metrics.total_utility;
  metrics.events_below_lower_bound = plan.CountEventsBelowLowerBound(instance);
  return metrics;
}

}  // namespace

Result<SimulationResult> RunSimulation(const SimulationConfig& config) {
  if (config.num_days < 1) {
    return Status::InvalidArgument("num_days must be >= 1");
  }
  GEPC_ASSIGN_OR_RETURN(Instance instance, GenerateInstance(config.base));

  // The friendship graph covers the day-0 users; drift never adds users, so
  // it stays valid for the whole simulation.
  FriendshipGraph friends;
  AffinityParams affinity;
  if (config.affinity_lambda != 0.0) {
    friends = GenerateFriendshipGraph(instance.users(), config.friendship);
    affinity.graph = &friends;
    affinity.lambda = config.affinity_lambda;
  }
  GepcOptions planner_options = config.planner;
  if (affinity.Armed()) planner_options.local_search.affinity = affinity;

  Timer day0_timer;
  GEPC_ASSIGN_OR_RETURN(GepcResult initial, SolveGepc(instance, planner_options));
  GEPC_ASSIGN_OR_RETURN(
      IncrementalPlanner planner,
      IncrementalPlanner::Create(std::move(instance), initial.plan));

  SimulationResult result;
  DayMetrics day0 = Snapshot(0, planner.instance(), planner.plan(), affinity);
  day0.plan_seconds = day0_timer.ElapsedSeconds();
  result.days.push_back(day0);
  result.total_plan_seconds += day0.plan_seconds;

  Rng rng(config.seed * 0x9E3779B1ULL + 17);
  for (int day = 1; day <= config.num_days; ++day) {
    const std::vector<AtomicOp> ops =
        DriftOps(planner.instance(), config, affinity, &rng);

    Timer timer;
    int64_t dif = 0;
    if (config.incremental) {
      for (const AtomicOp& op : ops) {
        GEPC_ASSIGN_OR_RETURN(IepResult step, planner.Apply(op));
        dif += step.negative_impact;
      }
      // The incremental repairs optimize plain mu; an affinity-aware refine
      // pass recovers the social term the repairs cannot see.
      if (affinity.Armed() && planner_options.refine_with_local_search) {
        Plan refined = planner.plan();
        GEPC_ASSIGN_OR_RETURN(
            const LocalSearchStats refine_stats,
            RefinePlan(planner.instance(), &refined,
                       planner_options.local_search));
        if (refine_stats.add_moves + refine_stats.replace_moves +
                refine_stats.transfer_moves >
            0) {
          GEPC_ASSIGN_OR_RETURN(planner, IncrementalPlanner::Create(
                                             planner.instance(), refined));
        }
      }
    } else {
      // Baseline: mutate, then re-plan everyone from scratch.
      const Plan before = planner.plan();
      for (const AtomicOp& op : ops) {
        GEPC_ASSIGN_OR_RETURN(IepResult step, planner.Apply(op));
        (void)step;
      }
      GEPC_ASSIGN_OR_RETURN(GepcResult redo,
                            SolveGepc(planner.instance(), planner_options));
      dif = NegativeImpact(before, redo.plan);
      GEPC_ASSIGN_OR_RETURN(
          planner, IncrementalPlanner::Create(planner.instance(), redo.plan));
    }

    DayMetrics metrics =
        Snapshot(day, planner.instance(), planner.plan(), affinity);
    metrics.ops = static_cast<int>(ops.size());
    metrics.negative_impact = dif;
    metrics.plan_seconds = timer.ElapsedSeconds();
    result.days.push_back(metrics);
    result.total_negative_impact += dif;
    result.total_plan_seconds += metrics.plan_seconds;
  }
  result.final_utility = result.days.back().total_utility;
  result.final_affinity_utility = result.days.back().affinity_utility;
  return result;
}

}  // namespace gepc
