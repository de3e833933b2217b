#include "gepc/exact.h"

#include <algorithm>
#include <vector>

#include "core/feasibility.h"
#include "gepc/user_menus.h"

namespace gepc {

namespace {

/// Largest event count the search accepts (the menus allow more).
constexpr int kMaxEvents = 14;
static_assert(kMaxEvents <= kMaxUserMenuEvents);

class Search {
 public:
  Search(const Instance& instance, const ExactOptions& options,
         std::vector<UserMenu> menus)
      : instance_(instance), options_(options), menus_(std::move(menus)) {
    const int n = instance.num_users();
    // Suffix sums of per-user best utility for the optimistic bound.
    suffix_best_.assign(static_cast<size_t>(n) + 1, 0.0);
    for (int i = n - 1; i >= 0; --i) {
      suffix_best_[static_cast<size_t>(i)] =
          suffix_best_[static_cast<size_t>(i) + 1] +
          menus_[static_cast<size_t>(i)].best_utility;
    }
    // How many of users i..n-1 can attend event j at all.
    const int m = instance.num_events();
    suffix_attendable_.assign(
        (static_cast<size_t>(n) + 1) * static_cast<size_t>(m), 0);
    for (int i = n - 1; i >= 0; --i) {
      for (int j = 0; j < m; ++j) {
        suffix_attendable_[Idx(i, j)] =
            suffix_attendable_[Idx(i + 1, j)] +
            ((menus_[static_cast<size_t>(i)].attendable & (1u << j)) ? 1 : 0);
      }
    }
    counts_.assign(static_cast<size_t>(m), 0);
    chosen_.assign(static_cast<size_t>(n), 0);
  }

  Status Run() {
    return Recurse(0, 0.0);
  }

  bool found() const { return found_; }
  double best_utility() const { return best_utility_; }
  const std::vector<uint32_t>& best_choice() const { return best_choice_; }
  int64_t nodes() const { return nodes_; }

 private:
  size_t Idx(int i, int j) const {
    return static_cast<size_t>(i) * static_cast<size_t>(instance_.num_events()) +
           static_cast<size_t>(j);
  }

  Status Recurse(int user, double utility) {
    if (++nodes_ > options_.max_nodes) {
      return Status::Internal("exact solver exceeded its node budget");
    }
    const int n = instance_.num_users();
    const int m = instance_.num_events();
    if (user == n) {
      for (int j = 0; j < m; ++j) {
        if (counts_[static_cast<size_t>(j)] <
            instance_.event(j).lower_bound) {
          return Status::OK();
        }
      }
      if (!found_ || utility > best_utility_) {
        found_ = true;
        best_utility_ = utility;
        best_choice_ = chosen_;
      }
      return Status::OK();
    }
    // Optimistic utility bound.
    if (found_ &&
        utility + suffix_best_[static_cast<size_t>(user)] <=
            best_utility_ + 1e-12) {
      return Status::OK();
    }
    // Lower-bound reachability: every event must still be able to reach xi.
    for (int j = 0; j < m; ++j) {
      if (counts_[static_cast<size_t>(j)] + suffix_attendable_[Idx(user, j)] <
          instance_.event(j).lower_bound) {
        return Status::OK();
      }
    }

    const UserMenu& menu = menus_[static_cast<size_t>(user)];
    for (size_t s = 0; s < menu.subsets.size(); ++s) {
      const uint32_t mask = menu.subsets[s];
      bool over_capacity = false;
      for (int j = 0; j < m; ++j) {
        if (!(mask & (1u << j))) continue;
        if (counts_[static_cast<size_t>(j)] + 1 >
            instance_.event(j).upper_bound) {
          over_capacity = true;
          break;
        }
      }
      if (over_capacity) continue;
      for (int j = 0; j < m; ++j) {
        if (mask & (1u << j)) ++counts_[static_cast<size_t>(j)];
      }
      chosen_[static_cast<size_t>(user)] = mask;
      GEPC_RETURN_IF_ERROR(Recurse(user + 1, utility + menu.utilities[s]));
      for (int j = 0; j < m; ++j) {
        if (mask & (1u << j)) --counts_[static_cast<size_t>(j)];
      }
    }
    return Status::OK();
  }

  const Instance& instance_;
  const ExactOptions& options_;
  std::vector<UserMenu> menus_;
  std::vector<double> suffix_best_;
  std::vector<int> suffix_attendable_;
  std::vector<int> counts_;
  std::vector<uint32_t> chosen_;
  std::vector<uint32_t> best_choice_;
  bool found_ = false;
  double best_utility_ = 0.0;
  int64_t nodes_ = 0;
};

}  // namespace

Result<ExactResult> SolveGepcExact(const Instance& instance,
                                   const ExactOptions& options) {
  GEPC_RETURN_IF_ERROR(instance.Validate());
  if (instance.num_users() > options.max_users ||
      instance.num_events() > kMaxEvents) {
    return Status::InvalidArgument("instance too large for the exact solver");
  }

  // Menus are built through the budget-reachability grid: seeding each
  // user's feasible singles costs O(cells touched) instead of O(m).
  const ReachabilityFilter filter(instance);
  std::vector<UserMenu> menus;
  menus.reserve(static_cast<size_t>(instance.num_users()));
  for (int i = 0; i < instance.num_users(); ++i) {
    GEPC_ASSIGN_OR_RETURN(
        UserMenu menu,
        BuildUserMenu(instance, i, /*sort_by_utility_desc=*/true, &filter));
    menus.push_back(std::move(menu));
  }

  Search search(instance, options, std::move(menus));
  GEPC_RETURN_IF_ERROR(search.Run());

  ExactResult result;
  result.explored_nodes = search.nodes();
  result.plan = Plan(instance.num_users(), instance.num_events());
  if (!search.found()) return result;
  result.feasible = true;
  result.total_utility = search.best_utility();
  for (int i = 0; i < instance.num_users(); ++i) {
    const uint32_t mask = search.best_choice()[static_cast<size_t>(i)];
    for (int j = 0; j < instance.num_events(); ++j) {
      if (mask & (1u << j)) result.plan.Add(i, j);
    }
  }
  return result;
}

}  // namespace gepc
