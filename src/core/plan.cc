#include "core/plan.h"

#include <algorithm>
#include <cassert>

namespace gepc {

Plan::Plan(int num_users, int num_events)
    : user_events_(static_cast<size_t>(num_users)),
      event_users_(static_cast<size_t>(num_events)) {}

bool Plan::Add(UserId i, EventId j) {
  assert(i >= 0 && i < num_users() && j >= 0 && j < num_events());
  auto& events = user_events_[static_cast<size_t>(i)];
  if (std::find(events.begin(), events.end(), j) != events.end()) return false;
  events.push_back(j);
  event_users_[static_cast<size_t>(j)].push_back(i);
  return true;
}

bool Plan::Remove(UserId i, EventId j) {
  assert(i >= 0 && i < num_users() && j >= 0 && j < num_events());
  auto& events = user_events_[static_cast<size_t>(i)];
  auto it = std::find(events.begin(), events.end(), j);
  if (it == events.end()) return false;
  events.erase(it);
  auto& users = event_users_[static_cast<size_t>(j)];
  users.erase(std::find(users.begin(), users.end(), i));
  return true;
}

bool Plan::Contains(UserId i, EventId j) const {
  assert(i >= 0 && i < num_users() && j >= 0 && j < num_events());
  const auto& events = user_events_[static_cast<size_t>(i)];
  return std::find(events.begin(), events.end(), j) != events.end();
}

int64_t Plan::TotalAssignments() const {
  int64_t total = 0;
  for (const auto& events : user_events_) {
    total += static_cast<int64_t>(events.size());
  }
  return total;
}

double Plan::TotalUtility(const Instance& instance) const {
  assert(num_users() == instance.num_users());
  double total = 0.0;
  for (int i = 0; i < num_users(); ++i) {
    for (EventId j : user_events_[static_cast<size_t>(i)]) {
      total += instance.utility(i, j);
    }
  }
  return total;
}

int Plan::CountEventsBelowLowerBound(const Instance& instance) const {
  int below = 0;
  for (int j = 0; j < instance.num_events(); ++j) {
    if (attendance(j) < instance.event(j).lower_bound) ++below;
  }
  return below;
}

void Plan::EnsureEventCapacity(int num_events) {
  if (num_events > this->num_events()) {
    event_users_.resize(static_cast<size_t>(num_events));
  }
}

void Plan::Clear() {
  for (auto& events : user_events_) events.clear();
  for (auto& users : event_users_) users.clear();
}

bool operator==(const Plan& a, const Plan& b) {
  if (a.num_users() != b.num_users()) return false;
  for (int i = 0; i < a.num_users(); ++i) {
    auto lhs = a.user_events_[static_cast<size_t>(i)];
    auto rhs = b.user_events_[static_cast<size_t>(i)];
    std::sort(lhs.begin(), lhs.end());
    std::sort(rhs.begin(), rhs.end());
    if (lhs != rhs) return false;
  }
  return true;
}

int64_t NegativeImpact(const Plan& before, const Plan& after) {
  assert(before.num_users() == after.num_users());
  int64_t impact = 0;
  for (int i = 0; i < before.num_users(); ++i) {
    for (EventId j : before.events_of(i)) {
      // Events removed from the instance entirely also count as lost.
      if (j >= after.num_events() || !after.Contains(i, j)) ++impact;
    }
  }
  return impact;
}

}  // namespace gepc
