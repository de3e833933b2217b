#include "gepc/solver.h"

#include "gepc/regret_greedy.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gepc {

namespace {

/// Cached registry handles for the solver's phase metrics (see
/// docs/observability.md for the catalogue).
struct SolverMetrics {
  std::shared_ptr<obs::Counter> solves;
  std::shared_ptr<obs::Histogram> total_ms;
  std::shared_ptr<obs::Histogram> xi_ms;
  std::shared_ptr<obs::Histogram> topup_ms;
  std::shared_ptr<obs::Histogram> local_search_ms;

  static const SolverMetrics& Get() {
    static const SolverMetrics metrics = [] {
      obs::Registry& registry = obs::Registry::Global();
      SolverMetrics m;
      m.solves = registry.GetCounter("gepc_solver_solves_total",
                                     "SolveGepc invocations");
      m.total_ms = registry.GetHistogram("gepc_solver_total_ms",
                                         "SolveGepc end-to-end latency");
      m.xi_ms = registry.GetHistogram(
          "gepc_solver_xi_ms", "xi-GEPC step latency (GAP/greedy/regret)");
      m.topup_ms =
          registry.GetHistogram("gepc_solver_topup_ms", "top-up pass latency");
      m.local_search_ms = registry.GetHistogram(
          "gepc_solver_local_search_ms", "local-search refinement latency");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

const char* GepcAlgorithmName(GepcAlgorithm algorithm) {
  switch (algorithm) {
    case GepcAlgorithm::kGapBased:
      return "GAP";
    case GepcAlgorithm::kGreedy:
      return "Greedy";
    case GepcAlgorithm::kRegret:
      return "Regret";
  }
  return "unknown";
}

Result<GepcResult> SolveGepc(const Instance& instance,
                             const GepcOptions& options) {
  GEPC_RETURN_IF_ERROR(instance.Validate());
  const SolverMetrics& om = SolverMetrics::Get();
  om.solves->Increment();
  obs::ScopedTimerMs total_timer(om.total_ms.get());
  GEPC_TRACE_SPAN("gepc.solve");

  const CopyMap copies(instance);

  Result<XiGepcResult> xi_result = Status::Internal("unset");
  {
    obs::ScopedTimerMs xi_timer(om.xi_ms.get());
    GEPC_TRACE_SPAN("gepc.xi_solve");
    if (options.algorithm == GepcAlgorithm::kGapBased) {
      xi_result = SolveXiGepcGapBased(instance, copies, options.gap_based);
      if (!xi_result.ok() &&
          xi_result.status().code() == StatusCode::kInfeasible &&
          options.fallback_to_greedy) {
        xi_result = SolveXiGepcGreedy(instance, copies, options.greedy);
      }
    } else if (options.algorithm == GepcAlgorithm::kRegret) {
      xi_result = SolveXiGepcRegret(instance, copies);
    } else {
      xi_result = SolveXiGepcGreedy(instance, copies, options.greedy);
    }
  }
  if (!xi_result.ok()) return xi_result.status();

  GepcResult result;
  result.adjust_stats = xi_result->adjust_stats;
  result.unplaced_copies = xi_result->copy_plan.UnassignedCopies();
  result.plan = CollapseToPlan(instance, copies, xi_result->copy_plan);

  if (options.run_topup) {
    obs::ScopedTimerMs topup_timer(om.topup_ms.get());
    GEPC_TRACE_SPAN("gepc.topup");
    result.topup_stats = TopUpPlan(instance, &result.plan);
  }
  if (options.refine_with_local_search) {
    obs::ScopedTimerMs refine_timer(om.local_search_ms.get());
    GEPC_TRACE_SPAN("gepc.local_search");
    GEPC_ASSIGN_OR_RETURN(
        result.local_search_stats,
        RefinePlan(instance, &result.plan, options.local_search));
  }

  result.total_utility = result.plan.TotalUtility(instance);
  result.affinity_utility = options.local_search.affinity.Armed()
                                ? AffinityUtility(instance, result.plan,
                                                  options.local_search.affinity)
                                : result.total_utility;
  result.events_below_lower_bound =
      result.plan.CountEventsBelowLowerBound(instance);
  return result;
}

}  // namespace gepc
