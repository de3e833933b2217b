#include "gap/exact_gap.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace gepc {

namespace {

/// Largest machine count the exact search accepts (GAP is NP-hard).
constexpr int kMaxMachines = 16;

class GapSearch {
 public:
  GapSearch(const GapInstance& gap, const ExactGapOptions& options)
      : gap_(gap), options_(options) {
    const int m = gap.num_jobs();
    // Candidate machines per job, cheapest first.
    candidates_.resize(static_cast<size_t>(m));
    min_cost_.assign(static_cast<size_t>(m), 0.0);
    for (int j = 0; j < m; ++j) {
      auto& machines = candidates_[static_cast<size_t>(j)];
      for (int i = 0; i < gap.num_machines(); ++i) {
        if (gap.Eligible(i, j)) machines.push_back(i);
      }
      std::sort(machines.begin(), machines.end(), [&](int a, int b) {
        return gap.cost(a, j) < gap.cost(b, j);
      });
      min_cost_[static_cast<size_t>(j)] =
          machines.empty() ? 0.0 : gap.cost(machines.front(), j);
    }
    // Branch hardest jobs (fewest options) first.
    order_.resize(static_cast<size_t>(m));
    for (int j = 0; j < m; ++j) order_[static_cast<size_t>(j)] = j;
    std::sort(order_.begin(), order_.end(), [&](int a, int b) {
      const size_t ca = candidates_[static_cast<size_t>(a)].size();
      const size_t cb = candidates_[static_cast<size_t>(b)].size();
      if (ca != cb) return ca < cb;
      return a < b;
    });
    // Suffix sums of minimum job costs for the lower bound.
    suffix_min_.assign(static_cast<size_t>(m) + 1, 0.0);
    for (int k = m - 1; k >= 0; --k) {
      suffix_min_[static_cast<size_t>(k)] =
          suffix_min_[static_cast<size_t>(k) + 1] +
          min_cost_[static_cast<size_t>(order_[static_cast<size_t>(k)])];
    }
    load_.assign(static_cast<size_t>(gap.num_machines()), 0.0);
    machine_of_job_.assign(static_cast<size_t>(m), -1);
  }

  Status Run() { return Recurse(0, 0.0); }

  bool found() const { return found_; }
  double best_cost() const { return best_cost_; }
  const std::vector<int>& best_assignment() const { return best_; }
  int64_t nodes() const { return nodes_; }

 private:
  Status Recurse(int depth, double cost) {
    if (++nodes_ > options_.max_nodes) {
      return Status::Internal("exact GAP solver exceeded its node budget");
    }
    if (depth == gap_.num_jobs()) {
      if (!found_ || cost < best_cost_) {
        found_ = true;
        best_cost_ = cost;
        best_ = machine_of_job_;
      }
      return Status::OK();
    }
    if (found_ &&
        cost + suffix_min_[static_cast<size_t>(depth)] >= best_cost_ - 1e-12) {
      return Status::OK();
    }
    const int job = order_[static_cast<size_t>(depth)];
    for (int machine : candidates_[static_cast<size_t>(job)]) {
      const double p = gap_.processing(machine, job);
      if (load_[static_cast<size_t>(machine)] + p >
          gap_.capacity(machine) + 1e-12) {
        continue;
      }
      load_[static_cast<size_t>(machine)] += p;
      machine_of_job_[static_cast<size_t>(job)] = machine;
      GEPC_RETURN_IF_ERROR(
          Recurse(depth + 1, cost + gap_.cost(machine, job)));
      load_[static_cast<size_t>(machine)] -= p;
      machine_of_job_[static_cast<size_t>(job)] = -1;
    }
    return Status::OK();
  }

  const GapInstance& gap_;
  const ExactGapOptions& options_;
  std::vector<std::vector<int>> candidates_;
  std::vector<double> min_cost_;
  std::vector<int> order_;
  std::vector<double> suffix_min_;
  std::vector<double> load_;
  std::vector<int> machine_of_job_;
  std::vector<int> best_;
  bool found_ = false;
  double best_cost_ = std::numeric_limits<double>::infinity();
  int64_t nodes_ = 0;
};

}  // namespace

Result<ExactGapResult> SolveGapExact(const GapInstance& gap,
                                     const ExactGapOptions& options) {
  if (gap.num_machines() > kMaxMachines ||
      gap.num_jobs() > options.max_jobs) {
    return Status::InvalidArgument(
        "GAP instance too large for the exact solver (raise limits)");
  }
  GEPC_RETURN_IF_ERROR(gap.Validate());

  GapSearch search(gap, options);
  GEPC_RETURN_IF_ERROR(search.Run());

  ExactGapResult result;
  result.explored_nodes = search.nodes();
  result.assignment.machine_of_job.assign(
      static_cast<size_t>(gap.num_jobs()), -1);
  if (!search.found()) return result;
  result.feasible = true;
  result.total_cost = search.best_cost();
  result.assignment.machine_of_job = search.best_assignment();
  return result;
}

}  // namespace gepc
