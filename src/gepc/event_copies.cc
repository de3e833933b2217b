#include "gepc/event_copies.h"

#include <algorithm>
#include <cassert>

#include "core/feasibility.h"

namespace gepc {

CopyMap::CopyMap(const Instance& instance)
    : copies_of_event_(static_cast<size_t>(instance.num_events())) {
  for (int j = 0; j < instance.num_events(); ++j) {
    const int xi = instance.event(j).lower_bound;
    for (int k = 0; k < xi; ++k) {
      copies_of_event_[static_cast<size_t>(j)].push_back(
          static_cast<int>(event_of_copy_.size()));
      event_of_copy_.push_back(j);
    }
  }
}

void CopyPlan::Assign(int user, int copy) {
  assert(user_of_copy[static_cast<size_t>(copy)] == -1);
  user_of_copy[static_cast<size_t>(copy)] = user;
  copies_of_user[static_cast<size_t>(user)].push_back(copy);
}

void CopyPlan::Unassign(int copy) {
  const int user = user_of_copy[static_cast<size_t>(copy)];
  if (user < 0) return;
  auto& copies = copies_of_user[static_cast<size_t>(user)];
  copies.erase(std::find(copies.begin(), copies.end(), copy));
  user_of_copy[static_cast<size_t>(copy)] = -1;
}

int CopyPlan::UnassignedCopies() const {
  int unassigned = 0;
  for (int user : user_of_copy) {
    if (user < 0) ++unassigned;
  }
  return unassigned;
}

Plan CollapseToPlan(const Instance& instance, const CopyMap& copies,
                    const CopyPlan& copy_plan) {
  Plan plan(instance.num_users(), instance.num_events());
  for (int i = 0; i < instance.num_users(); ++i) {
    for (int copy : copy_plan.copies_of_user[static_cast<size_t>(i)]) {
      plan.Add(i, copies.event_of(copy));  // Add() dedups
    }
  }
  return plan;
}

double CopyTourCost(const Instance& instance, const CopyMap& copies, UserId i,
                    const std::vector<int>& copy_ids, int extra_copy) {
  std::vector<EventId> events;
  events.reserve(copy_ids.size() + 1);
  for (int copy : copy_ids) events.push_back(copies.event_of(copy));
  if (extra_copy >= 0) events.push_back(copies.event_of(extra_copy));
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());
  return TourCost(instance, i, std::move(events));
}

bool CanHoldCopy(const Instance& instance, const CopyMap& copies,
                 const CopyPlan& copy_plan, UserId i, int copy) {
  if (instance.utility(i, copies.event_of(copy)) <= 0.0) return false;
  const auto& held = copy_plan.copies_of_user[static_cast<size_t>(i)];
  for (int other : held) {
    if (copies.CopiesConflict(instance, other, copy)) return false;
  }
  const double cost = CopyTourCost(instance, copies, i, held, copy);
  return cost <= instance.user(i).budget + kBudgetEpsilon;
}

}  // namespace gepc
