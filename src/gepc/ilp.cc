#include "gepc/ilp.h"

#include <utility>
#include <vector>

#include "gepc/user_menus.h"

namespace gepc {

namespace {

/// Largest event count the formulation accepts (the menus allow more).
constexpr int kMaxEvents = 14;
static_assert(kMaxEvents <= kMaxUserMenuEvents);

}  // namespace

Result<ExactResult> SolveGepcIlp(const Instance& instance,
                                 const GepcIlpOptions& options) {
  GEPC_RETURN_IF_ERROR(instance.Validate());
  if (instance.num_users() > options.max_users ||
      instance.num_events() > kMaxEvents) {
    return Status::InvalidArgument(
        "instance too large for the ILP formulation");
  }

  const int n = instance.num_users();
  const int m = instance.num_events();

  // Variable layout: one z per (user, feasible subset).
  struct Var {
    UserId user;
    uint32_t mask;
    double utility;
  };
  std::vector<Var> vars;
  std::vector<std::pair<int, int>> user_var_range(static_cast<size_t>(n));
  const ReachabilityFilter filter(instance);
  for (int i = 0; i < n; ++i) {
    GEPC_ASSIGN_OR_RETURN(
        const UserMenu menu,
        BuildUserMenu(instance, i, /*sort_by_utility_desc=*/false, &filter));
    const int begin = static_cast<int>(vars.size());
    for (size_t s = 0; s < menu.subsets.size(); ++s) {
      vars.push_back(Var{i, menu.subsets[s], menu.utilities[s]});
    }
    user_var_range[static_cast<size_t>(i)] = {begin,
                                              static_cast<int>(vars.size())};
  }

  LinearProgram lp(LinearProgram::Sense::kMaximize,
                   static_cast<int>(vars.size()));
  for (size_t v = 0; v < vars.size(); ++v) {
    lp.set_objective(static_cast<int>(v), vars[v].utility);
  }
  // Exactly one subset per user.
  for (int i = 0; i < n; ++i) {
    std::vector<std::pair<int, double>> terms;
    const auto [begin, end] = user_var_range[static_cast<size_t>(i)];
    for (int v = begin; v < end; ++v) terms.emplace_back(v, 1.0);
    lp.AddConstraint(std::move(terms), Relation::kEqual, 1.0);
  }
  // Participation bounds per event.
  for (int j = 0; j < m; ++j) {
    std::vector<std::pair<int, double>> terms;
    for (size_t v = 0; v < vars.size(); ++v) {
      if (vars[v].mask & (1u << j)) terms.emplace_back(static_cast<int>(v), 1.0);
    }
    const Event& e = instance.event(j);
    if (!terms.empty()) {
      if (e.upper_bound < static_cast<int>(terms.size())) {
        lp.AddConstraint(terms, Relation::kLessEqual,
                         static_cast<double>(e.upper_bound));
      }
      if (e.lower_bound > 0) {
        lp.AddConstraint(std::move(terms), Relation::kGreaterEqual,
                         static_cast<double>(e.lower_bound));
      }
    } else if (e.lower_bound > 0) {
      // No feasible subset contains this event, yet xi > 0: the instance
      // is infeasible (reported like the MIP-infeasible case below).
      ExactResult result;
      result.plan = Plan(n, m);
      return result;
    }
  }

  Result<MipSolution> mip = SolveBinaryMip(lp, options.mip);
  ExactResult result;
  result.plan = Plan(n, m);
  if (!mip.ok()) {
    if (mip.status().code() == StatusCode::kInfeasible) {
      return result;  // feasible == false
    }
    return mip.status();
  }
  result.feasible = true;
  result.total_utility = mip->objective_value;
  result.explored_nodes = mip->explored_nodes;
  for (size_t v = 0; v < vars.size(); ++v) {
    if (mip->x[v] > 0.5) {
      for (int j = 0; j < m; ++j) {
        if (vars[v].mask & (1u << j)) result.plan.Add(vars[v].user, j);
      }
    }
  }
  return result;
}

}  // namespace gepc
