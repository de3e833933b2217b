#include "gap/gap_lp.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "lp/linear_program.h"
#include "obs/metrics.h"

namespace gepc {

namespace {

/// Initial step size of the MWU multiplier update.
constexpr double kMwuStep = 1.0;
/// Fraction of the final MWU iterations averaged into the output
/// (Polyak-style tail averaging); in (0, 1].
constexpr double kMwuTailFraction = 0.5;

/// One workspace per thread: consecutive GAP relaxations (and the retry
/// after a candidate-cap infeasibility) share a single tableau arena, so the
/// per-solve allocation count is O(1) once the arena has grown to the
/// instance family's working size.
LpWorkspace& ThreadWorkspace() {
  thread_local LpWorkspace workspace;
  return workspace;
}

/// Eligible (machine, job) pairs that survive the per-job candidate cap.
struct CandidateSet {
  // For each job, the candidate machines (cheapest-first when capped).
  std::vector<std::vector<int>> machines_of_job;
};

CandidateSet BuildCandidates(const GapInstance& gap, int max_per_job) {
  CandidateSet set;
  set.machines_of_job.resize(static_cast<size_t>(gap.num_jobs()));
  for (int j = 0; j < gap.num_jobs(); ++j) {
    auto& machines = set.machines_of_job[static_cast<size_t>(j)];
    for (int i = 0; i < gap.num_machines(); ++i) {
      if (gap.Eligible(i, j)) machines.push_back(i);
    }
    if (max_per_job > 0 &&
        static_cast<int>(machines.size()) > max_per_job) {
      std::partial_sort(machines.begin(), machines.begin() + max_per_job,
                        machines.end(), [&](int a, int b) {
                          return gap.cost(a, j) < gap.cost(b, j);
                        });
      machines.resize(static_cast<size_t>(max_per_job));
    }
  }
  return set;
}

Result<FractionalAssignment> SolveWithCandidates(const GapInstance& gap,
                                                 const CandidateSet& cands,
                                                 const SimplexOptions& simplex) {
  // Variable layout: one x_ij per candidate pair, in job-major order.
  struct Var {
    int machine;
    int job;
  };
  std::vector<Var> vars;
  std::vector<std::vector<int>> vars_of_machine(
      static_cast<size_t>(gap.num_machines()));
  std::vector<std::vector<int>> vars_of_job(
      static_cast<size_t>(gap.num_jobs()));
  for (int j = 0; j < gap.num_jobs(); ++j) {
    for (int i : cands.machines_of_job[static_cast<size_t>(j)]) {
      const int v = static_cast<int>(vars.size());
      vars.push_back(Var{i, j});
      vars_of_machine[static_cast<size_t>(i)].push_back(v);
      vars_of_job[static_cast<size_t>(j)].push_back(v);
    }
  }

  LinearProgram lp(LinearProgram::Sense::kMinimize,
                   static_cast<int>(vars.size()));
  for (size_t v = 0; v < vars.size(); ++v) {
    lp.set_objective(static_cast<int>(v),
                     gap.cost(vars[v].machine, vars[v].job));
  }
  for (int j = 0; j < gap.num_jobs(); ++j) {
    std::vector<std::pair<int, double>> terms;
    for (int v : vars_of_job[static_cast<size_t>(j)]) terms.emplace_back(v, 1.0);
    lp.AddConstraint(std::move(terms), Relation::kEqual, 1.0);
  }
  for (int i = 0; i < gap.num_machines(); ++i) {
    if (vars_of_machine[static_cast<size_t>(i)].empty()) continue;
    std::vector<std::pair<int, double>> terms;
    for (int v : vars_of_machine[static_cast<size_t>(i)]) {
      terms.emplace_back(v, gap.processing(vars[static_cast<size_t>(v)].machine,
                                           vars[static_cast<size_t>(v)].job));
    }
    lp.AddConstraint(std::move(terms), Relation::kLessEqual, gap.capacity(i));
  }

  static const auto solves = obs::Registry::Global().GetCounter(
      "gepc_gap_lp_solves_total", "GAP LP relaxations solved via simplex");
  static const auto arena_allocs = obs::Registry::Global().GetCounter(
      "gepc_gap_lp_arena_allocs_total",
      "Tableau arena (re)allocations across GAP LP solves; flat when the "
      "workspace reuse contract holds");

  LpWorkspace& workspace = ThreadWorkspace();
  const int64_t allocs_before = workspace.allocation_count();
  GEPC_ASSIGN_OR_RETURN(LpSolution solution, SolveLp(lp, simplex, &workspace));
  solves->Increment();
  arena_allocs->Increment(
      static_cast<uint64_t>(workspace.allocation_count() - allocs_before));

  FractionalAssignment frac;
  frac.job_shares.resize(static_cast<size_t>(gap.num_jobs()));
  for (size_t v = 0; v < vars.size(); ++v) {
    const double x = solution.x[v];
    if (x > 1e-9) {
      frac.job_shares[static_cast<size_t>(vars[v].job)].push_back(
          FractionalAssignment::Share{vars[v].machine, x});
    }
  }
  // Normalize each job's shares to sum exactly 1 (simplex rounding noise).
  for (auto& shares : frac.job_shares) {
    double total = 0.0;
    for (const auto& s : shares) total += s.fraction;
    if (total > 0.0) {
      for (auto& s : shares) s.fraction /= total;
    }
  }
  return frac;
}

}  // namespace

Result<FractionalAssignment> SolveGapLpSimplex(const GapInstance& gap,
                                               const GapLpOptions& options) {
  GEPC_RETURN_IF_ERROR(gap.Validate());
  CandidateSet cands = BuildCandidates(gap, options.max_candidates_per_job);
  Result<FractionalAssignment> result =
      SolveWithCandidates(gap, cands, options.simplex);
  if (!result.ok() && result.status().code() == StatusCode::kInfeasible &&
      options.max_candidates_per_job > 0) {
    // The candidate cap can cut off the only feasible machines; retry with
    // the full eligible set before reporting infeasible.
    CandidateSet full = BuildCandidates(gap, 0);
    return SolveWithCandidates(gap, full, options.simplex);
  }
  return result;
}

Result<FractionalAssignment> SolveGapLpMwu(const GapInstance& gap,
                                           const GapMwuOptions& options) {
  GEPC_RETURN_IF_ERROR(gap.Validate());
  if (options.iterations <= 0) {
    return Status::InvalidArgument("bad MWU options");
  }
  const int n = gap.num_machines();
  const int m = gap.num_jobs();

  const CandidateSet cands =
      BuildCandidates(gap, options.max_candidates_per_job);

  std::vector<double> multiplier(static_cast<size_t>(n), 0.0);
  std::vector<double> loads(static_cast<size_t>(n));
  // Accumulated tail-averaged fractional mass per (job, machine); sparse via
  // per-job map from machine to mass.
  std::vector<std::vector<FractionalAssignment::Share>> mass(
      static_cast<size_t>(m));
  const int tail_start = options.iterations -
                         static_cast<int>(options.iterations *
                                          kMwuTailFraction);
  int averaged = 0;

  std::vector<int> choice(static_cast<size_t>(m), -1);
  for (int t = 0; t < options.iterations; ++t) {
    // Oracle: each job picks the machine with minimum penalized cost.
    std::fill(loads.begin(), loads.end(), 0.0);
    for (int j = 0; j < m; ++j) {
      double best = GapInstance::kIneligible;
      int best_machine = -1;
      for (int i : cands.machines_of_job[static_cast<size_t>(j)]) {
        const double penalized =
            gap.cost(i, j) +
            multiplier[static_cast<size_t>(i)] * gap.processing(i, j);
        if (penalized < best) {
          best = penalized;
          best_machine = i;
        }
      }
      choice[static_cast<size_t>(j)] = best_machine;
      if (best_machine >= 0) {
        loads[static_cast<size_t>(best_machine)] +=
            gap.processing(best_machine, j);
      }
    }

    // Subgradient step on the load multipliers (normalized by capacity so
    // the step size is scale-free); diminishing step ~ 1/sqrt(t).
    const double step = kMwuStep / std::sqrt(static_cast<double>(t + 1));
    for (int i = 0; i < n; ++i) {
      const double cap = std::max(gap.capacity(i), 1e-12);
      const double violation = (loads[static_cast<size_t>(i)] - cap) / cap;
      multiplier[static_cast<size_t>(i)] =
          std::max(0.0, multiplier[static_cast<size_t>(i)] + step * violation);
    }

    if (t >= tail_start) {
      ++averaged;
      for (int j = 0; j < m; ++j) {
        const int i = choice[static_cast<size_t>(j)];
        if (i < 0) continue;
        auto& shares = mass[static_cast<size_t>(j)];
        auto it = std::find_if(shares.begin(), shares.end(),
                               [&](const auto& s) { return s.machine == i; });
        if (it == shares.end()) {
          shares.push_back(FractionalAssignment::Share{i, 1.0});
        } else {
          it->fraction += 1.0;
        }
      }
    }
  }

  FractionalAssignment frac;
  frac.job_shares.resize(static_cast<size_t>(m));
  for (int j = 0; j < m; ++j) {
    auto& shares = mass[static_cast<size_t>(j)];
    for (auto& s : shares) s.fraction /= static_cast<double>(averaged);
    frac.job_shares[static_cast<size_t>(j)] = std::move(shares);
  }
  return frac;
}

}  // namespace gepc
