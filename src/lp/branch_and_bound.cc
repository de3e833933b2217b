#include "lp/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace gepc {

namespace {

/// Values within this of an integer count as integral.
constexpr double kIntegralityTolerance = 1e-6;

class MipSearch {
 public:
  MipSearch(const LinearProgram& lp, const MipOptions& options)
      : lp_(lp),
        options_(options),
        maximize_(lp.sense() == LinearProgram::Sense::kMaximize),
        fixed_(static_cast<size_t>(lp.num_vars()), -1) {}

  Status Run() { return Recurse(); }

  bool found() const { return found_; }
  const std::vector<double>& best_x() const { return best_x_; }
  double best_objective() const { return best_objective_; }
  int64_t nodes() const { return nodes_; }

 private:
  /// Relaxation with 0/1 box and current fixings as extra rows. Every node
  /// has the same tableau shape, so one workspace serves the whole search
  /// with O(1) allocations after the root solve.
  Result<LpSolution> SolveRelaxation() {
    LinearProgram node = lp_;
    for (int v = 0; v < lp_.num_vars(); ++v) {
      const int fix = fixed_[static_cast<size_t>(v)];
      if (fix < 0) {
        node.AddConstraint({{v, 1.0}}, Relation::kLessEqual, 1.0);
      } else {
        node.AddConstraint({{v, 1.0}}, Relation::kEqual,
                           static_cast<double>(fix));
      }
    }
    return SolveLp(node, options_.simplex, &workspace_);
  }

  /// True iff `candidate` cannot beat the incumbent.
  bool Bounded(double candidate) const {
    if (!found_) return false;
    return maximize_ ? candidate <= best_objective_ + 1e-12
                     : candidate >= best_objective_ - 1e-12;
  }

  Status Recurse() {
    if (++nodes_ > options_.max_nodes) {
      return Status::Internal("MIP node budget exceeded");
    }
    Result<LpSolution> relaxation = SolveRelaxation();
    if (!relaxation.ok()) {
      if (relaxation.status().code() == StatusCode::kInfeasible) {
        return Status::OK();  // dead branch
      }
      return relaxation.status();
    }
    if (Bounded(relaxation->objective_value)) return Status::OK();

    // Most fractional variable.
    int branch_var = -1;
    double worst_distance = kIntegralityTolerance;
    for (int v = 0; v < lp_.num_vars(); ++v) {
      const double value = relaxation->x[static_cast<size_t>(v)];
      const double distance = std::fabs(value - std::round(value));
      if (distance > worst_distance) {
        worst_distance = distance;
        branch_var = v;
      }
    }
    if (branch_var < 0) {
      // Integral: candidate incumbent.
      if (!found_ || (maximize_
                          ? relaxation->objective_value > best_objective_
                          : relaxation->objective_value < best_objective_)) {
        found_ = true;
        best_objective_ = relaxation->objective_value;
        best_x_ = relaxation->x;
        for (double& value : best_x_) value = std::round(value);
      }
      return Status::OK();
    }

    // Try the rounded-near side first (better incumbents earlier).
    const double value = relaxation->x[static_cast<size_t>(branch_var)];
    const int first = value >= 0.5 ? 1 : 0;
    for (int side : {first, 1 - first}) {
      fixed_[static_cast<size_t>(branch_var)] = side;
      GEPC_RETURN_IF_ERROR(Recurse());
      fixed_[static_cast<size_t>(branch_var)] = -1;
    }
    return Status::OK();
  }

  const LinearProgram& lp_;
  const MipOptions& options_;
  const bool maximize_;
  LpWorkspace workspace_;
  std::vector<int> fixed_;  // -1 free, 0/1 fixed
  std::vector<double> best_x_;
  double best_objective_ = 0.0;
  bool found_ = false;
  int64_t nodes_ = 0;
};

}  // namespace

Result<MipSolution> SolveBinaryMip(const LinearProgram& lp,
                                   const MipOptions& options) {
  GEPC_RETURN_IF_ERROR(lp.Validate());
  MipSearch search(lp, options);
  GEPC_RETURN_IF_ERROR(search.Run());
  if (!search.found()) {
    return Status::Infeasible("no 0/1 assignment satisfies the constraints");
  }
  MipSolution solution;
  solution.objective_value = search.best_objective();
  solution.x = search.best_x();
  solution.explored_nodes = search.nodes();
  return solution;
}

}  // namespace gepc
