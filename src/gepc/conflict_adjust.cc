#include "gepc/conflict_adjust.h"

#include <algorithm>
#include <vector>

#include "core/feasibility.h"

namespace gepc {

namespace {

/// Copies in user i's plan that conflict with at least one other copy there.
std::vector<int> ConflictedCopies(const Instance& instance,
                                  const CopyMap& copies,
                                  const std::vector<int>& held) {
  std::vector<int> conflicted;
  for (size_t a = 0; a < held.size(); ++a) {
    for (size_t b = 0; b < held.size(); ++b) {
      if (a == b) continue;
      if (copies.CopiesConflict(instance, held[a], held[b])) {
        conflicted.push_back(held[a]);
        break;
      }
    }
  }
  return conflicted;
}

/// Offers `copy` to every user except `exclude` in decreasing order of
/// utility; assigns to the first that can hold it. Returns true on success.
bool Reassign(const Instance& instance, const CopyMap& copies,
              CopyPlan* copy_plan, int copy, UserId exclude) {
  const EventId event = copies.event_of(copy);
  std::vector<UserId> candidates;
  candidates.reserve(static_cast<size_t>(instance.num_users()));
  for (int i = 0; i < instance.num_users(); ++i) {
    if (i != exclude && instance.utility(i, event) > 0.0) {
      candidates.push_back(i);
    }
  }
  std::sort(candidates.begin(), candidates.end(), [&](UserId a, UserId b) {
    const double ua = instance.utility(a, event);
    const double ub = instance.utility(b, event);
    if (ua != ub) return ua > ub;
    return a < b;
  });
  for (UserId candidate : candidates) {
    if (CanHoldCopy(instance, copies, *copy_plan, candidate, copy)) {
      copy_plan->Assign(candidate, copy);
      return true;
    }
  }
  return false;
}

}  // namespace

ConflictAdjustStats AdjustConflicts(const Instance& instance,
                                    const CopyMap& copies,
                                    CopyPlan* copy_plan) {
  ConflictAdjustStats stats;

  auto shed_copy = [&](UserId i, int copy) {
    copy_plan->Unassign(copy);
    ++stats.removed;
    if (Reassign(instance, copies, copy_plan, copy, i)) {
      ++stats.reassigned;
    } else {
      ++stats.orphaned;
    }
  };

  for (int i = 0; i < instance.num_users(); ++i) {
    // Phase 1 (Algorithm 1 proper): while P_i conflicts, drop the
    // lowest-utility conflicting copy and offer it around.
    while (true) {
      const auto& held = copy_plan->copies_of_user[static_cast<size_t>(i)];
      std::vector<int> conflicted = ConflictedCopies(instance, copies, held);
      if (conflicted.empty()) break;
      const int victim = *std::min_element(
          conflicted.begin(), conflicted.end(), [&](int a, int b) {
            const double ua = instance.utility(i, copies.event_of(a));
            const double ub = instance.utility(i, copies.event_of(b));
            if (ua != ub) return ua < ub;
            return a < b;
          });
      shed_copy(i, victim);
    }

    // Phase 2: shed lowest-utility copies until the tour fits the budget
    // (the GAP load bound is (2+eps)-relaxed, so overshoot is possible).
    while (true) {
      const auto& held = copy_plan->copies_of_user[static_cast<size_t>(i)];
      if (held.empty()) break;
      const double cost = CopyTourCost(instance, copies, i, held);
      if (cost <= instance.user(i).budget + kBudgetEpsilon) break;
      const int victim =
          *std::min_element(held.begin(), held.end(), [&](int a, int b) {
            const double ua = instance.utility(i, copies.event_of(a));
            const double ub = instance.utility(i, copies.event_of(b));
            if (ua != ub) return ua < ub;
            return a < b;
          });
      shed_copy(i, victim);
    }
  }
  return stats;
}

}  // namespace gepc
