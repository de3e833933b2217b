#include "core/instance.h"

#include <algorithm>
#include <cassert>

#include "geom/point.h"

namespace gepc {

Instance::Instance(std::vector<User> users, std::vector<Event> events)
    : users_(std::move(users)),
      events_(std::move(events)),
      utilities_(std::make_shared<double[]>(users_.size() * events_.size())) {
  RebuildConflicts();
}

void Instance::set_utility(UserId i, EventId j, double value) {
  assert(i >= 0 && i < num_users() && j >= 0 && j < num_events());
  // use_count() is a relaxed load: seeing 1 would not order this write after
  // the reads another thread made through a copy it has since dropped.
  // Copying the pointer is an acquire-release increment of the same counter
  // (libstdc++), which does order it, visibly to TSan.
  const std::shared_ptr<double[]> probe = utilities_;
  if (probe.use_count() > 2) {
    const size_t cells = users_.size() * events_.size();
    utilities_ = std::make_shared_for_overwrite<double[]>(cells);
    std::copy_n(probe.get(), cells, utilities_.get());
  }
  utilities_[static_cast<size_t>(i) * events_.size() + static_cast<size_t>(j)] =
      value;
}

double Instance::UserEventDistance(UserId i, EventId j) const {
  return Distance(users_[static_cast<size_t>(i)].location,
                  events_[static_cast<size_t>(j)].location);
}

double Instance::EventEventDistance(EventId a, EventId b) const {
  return Distance(events_[static_cast<size_t>(a)].location,
                  events_[static_cast<size_t>(b)].location);
}

void Instance::RebuildConflicts() {
  std::vector<Interval> intervals;
  intervals.reserve(events_.size());
  for (const Event& e : events_) intervals.push_back(e.time);
  conflicts_ = std::make_shared<const ConflictGraph>(intervals);
}

void Instance::set_user_budget(UserId i, double budget) {
  assert(i >= 0 && i < num_users());
  users_[static_cast<size_t>(i)].budget = budget;
}

Status Instance::set_event_bounds(EventId j, int lower, int upper) {
  if (j < 0 || j >= num_events()) {
    return Status::OutOfRange("event id out of range");
  }
  if (lower < 0 || lower > upper) {
    return Status::InvalidArgument("participation bounds must satisfy 0 <= xi <= eta");
  }
  events_[static_cast<size_t>(j)].lower_bound = lower;
  events_[static_cast<size_t>(j)].upper_bound = upper;
  return Status::OK();
}

Status Instance::set_event_time(EventId j, Interval time) {
  if (j < 0 || j >= num_events()) {
    return Status::OutOfRange("event id out of range");
  }
  if (!time.IsValid()) {
    return Status::InvalidArgument("event holding time must have start < end");
  }
  events_[static_cast<size_t>(j)].time = time;
  RebuildConflicts();
  return Status::OK();
}

void Instance::set_event_location(EventId j, Point location) {
  assert(j >= 0 && j < num_events());
  events_[static_cast<size_t>(j)].location = location;
}

EventId Instance::AddEvent(const Event& event,
                           const std::vector<double>& utilities) {
  assert(static_cast<int>(utilities.size()) == num_users());
  const int old_m = num_events();
  const int new_m = old_m + 1;
  auto grown = std::make_shared_for_overwrite<double[]>(
      users_.size() * static_cast<size_t>(new_m));
  for (int i = 0; i < num_users(); ++i) {
    for (int j = 0; j < old_m; ++j) {
      grown[static_cast<size_t>(i) * static_cast<size_t>(new_m) +
            static_cast<size_t>(j)] = utility(i, j);
    }
    grown[static_cast<size_t>(i) * static_cast<size_t>(new_m) +
          static_cast<size_t>(old_m)] = utilities[static_cast<size_t>(i)];
  }
  utilities_ = std::move(grown);
  events_.push_back(event);
  RebuildConflicts();
  return old_m;
}

Status Instance::Validate() const {
  for (int i = 0; i < num_users(); ++i) {
    if (users_[static_cast<size_t>(i)].budget < 0.0) {
      return Status::InvalidArgument("user " + std::to_string(i) +
                                     " has a negative travel budget");
    }
  }
  for (int j = 0; j < num_events(); ++j) {
    const Event& e = events_[static_cast<size_t>(j)];
    if (!e.IsValid()) {
      return Status::InvalidArgument(
          "event " + std::to_string(j) +
          " is invalid (needs 0 <= xi <= eta and start < end)");
    }
    if (e.upper_bound > num_users()) {
      // Not an error per se, but xi > n is outright infeasible.
      if (e.lower_bound > num_users()) {
        return Status::Infeasible("event " + std::to_string(j) +
                                  " requires more participants than users exist");
      }
    }
  }
  const size_t cells = users_.size() * events_.size();
  if (std::any_of(utilities_.get(), utilities_.get() + cells,
                  [](double mu) { return mu < 0.0; })) {
    return Status::InvalidArgument("utility scores must be non-negative");
  }
  return Status::OK();
}

int64_t Instance::TotalLowerBound() const {
  int64_t total = 0;
  for (const Event& e : events_) total += e.lower_bound;
  return total;
}

}  // namespace gepc
