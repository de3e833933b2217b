#include "ops.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

using gepc::AtomicOp;
using gepc::EventId;
using gepc::Instance;
using gepc::Plan;
using gepc::Rng;
using gepc::UserId;

namespace {

std::string Num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int RandomIndex(Rng* rng, size_t size) {
  return static_cast<int>(rng->UniformUint64(static_cast<uint64_t>(size)));
}

}  // namespace

const char* KindName(OpKind kind) {
  switch (kind) {
    case OpKind::kMu: return "mu";
    case OpKind::kBudget: return "budget";
    case OpKind::kEtaUp: return "eta_up";
    case OpKind::kEtaDown: return "eta_down";
    case OpKind::kXiUp: return "xi_up";
    case OpKind::kXiDown: return "xi_down";
    case OpKind::kTime: return "time";
    case OpKind::kNewEvent: return "new_event";
  }
  return "unknown";
}

OpKind ClassifyOp(const Instance& before, const AtomicOp& op) {
  switch (op.kind) {
    case AtomicOp::Kind::kUtilityChanged: return OpKind::kMu;
    case AtomicOp::Kind::kBudgetChanged: return OpKind::kBudget;
    case AtomicOp::Kind::kUpperBoundChanged:
      return op.new_bound > before.event(op.event).upper_bound
                 ? OpKind::kEtaUp
                 : OpKind::kEtaDown;
    case AtomicOp::Kind::kLowerBoundChanged:
      return op.new_bound > before.event(op.event).lower_bound
                 ? OpKind::kXiUp
                 : OpKind::kXiDown;
    case AtomicOp::Kind::kTimeChanged:
    case AtomicOp::Kind::kLocationChanged: return OpKind::kTime;
    case AtomicOp::Kind::kNewEvent: return OpKind::kNewEvent;
  }
  return OpKind::kMu;
}

std::string OpSpec(const AtomicOp& op) {
  switch (op.kind) {
    case AtomicOp::Kind::kUtilityChanged:
      return "mu:" + std::to_string(op.user) + ":" + std::to_string(op.event) +
             ":" + Num(op.new_utility);
    case AtomicOp::Kind::kBudgetChanged:
      return "budget:" + std::to_string(op.user) + ":" + Num(op.new_budget);
    case AtomicOp::Kind::kUpperBoundChanged:
      return "eta:" + std::to_string(op.event) + ":" +
             std::to_string(op.new_bound);
    case AtomicOp::Kind::kLowerBoundChanged:
      return "xi:" + std::to_string(op.event) + ":" +
             std::to_string(op.new_bound);
    case AtomicOp::Kind::kTimeChanged:
      return "time:" + std::to_string(op.event) + ":" +
             Num(op.new_time.start) + ":" + Num(op.new_time.end);
    case AtomicOp::Kind::kLocationChanged:
      return "loc:" + std::to_string(op.event) + ":" +
             Num(op.new_location.x) + ":" + Num(op.new_location.y);
    case AtomicOp::Kind::kNewEvent: return "";
  }
  return "";
}

ServingOpSource::ServingOpSource(const Instance& instance, const Plan& plan,
                                 std::vector<OpKind> mix, uint64_t pool_seed,
                                 uint64_t seed)
    : instance_(instance),
      mix_(std::move(mix)),
      restores_(std::find(mix_.begin(), mix_.end(), OpKind::kEtaUp) != mix_.end()),
      rng_(seed) {
  std::vector<EventId> events(static_cast<size_t>(instance.num_events()));
  for (int j = 0; j < instance.num_events(); ++j) {
    events[static_cast<size_t>(j)] = j;
    attendance_.push_back(plan.attendance(j));
    eta_.push_back(instance.event(j).upper_bound);
  }
  Rng pool_rng(pool_seed);
  for (size_t i = events.size(); i > 1; --i) {
    std::swap(events[i - 1], events[static_cast<size_t>(RandomIndex(&pool_rng, i))]);
  }
  const size_t half = events.size() / 2;
  for (size_t i = 0; i < events.size(); ++i) {
    if (i >= half) {
      other_pool_.push_back(events[i]);
    } else if (attendance_[static_cast<size_t>(events[i])] >= 8) {
      ready_.push_back(events[i]);
    }
  }
  if (ready_.empty()) ready_.assign(other_pool_.begin(), other_pool_.end());
  if (other_pool_.empty()) other_pool_.assign(ready_.begin(), ready_.end());
}

std::string ServingOpSource::EtaDown() {
  EventId e;
  int value;
  if (!ready_.empty()) {
    e = ready_.front();
    ready_.pop_front();
    value = attendance_[static_cast<size_t>(e)] / 2;
  } else {
    e = lowered_.front();
    lowered_.pop_front();
    value = eta_[static_cast<size_t>(e)] / 2;
  }
  lowered_.push_back(e);
  eta_[static_cast<size_t>(e)] = std::max(1, value);
  return OpSpec(AtomicOp::UpperBoundChange(e, eta_[static_cast<size_t>(e)]));
}

std::string ServingOpSource::EtaUp(EventId fallback) {
  EventId e = fallback;
  if (!lowered_.empty()) {
    e = lowered_.front();
    lowered_.pop_front();
    ready_.push_back(e);
    eta_[static_cast<size_t>(e)] = instance_.event(e).upper_bound;
  } else {
    eta_[static_cast<size_t>(e)] += static_cast<int>(rng_.UniformInt(1, 10));
  }
  return OpSpec(AtomicOp::UpperBoundChange(e, eta_[static_cast<size_t>(e)]));
}

std::string ServingOpSource::Next() {
  const Instance& in = instance_;
  const int n = in.num_users();
  const OpKind kind = mix_[static_cast<size_t>(RandomIndex(&rng_, mix_.size()))];
  const UserId user = RandomIndex(&rng_, static_cast<size_t>(n));
  const EventId other =
      other_pool_[static_cast<size_t>(RandomIndex(&rng_, other_pool_.size()))];
  const gepc::Event& event = in.event(other);
  switch (kind) {
    case OpKind::kMu: {
      const EventId e = RandomIndex(&rng_, static_cast<size_t>(in.num_events()));
      const double mu = rng_.Bernoulli(0.25) ? 0.0 : rng_.UniformDouble();
      return OpSpec(AtomicOp::UtilityChange(user, e, mu));
    }
    case OpKind::kBudget:
      return OpSpec(AtomicOp::BudgetChange(
          user, in.user(user).budget * rng_.UniformDouble(0.6, 1.4)));
    case OpKind::kEtaUp:
    case OpKind::kEtaDown: {
      const bool lower = !restores_ || 2 * lowered_.size() < eta_pool_size();
      return lower ? EtaDown() : EtaUp(other);
    }
    case OpKind::kXiUp:
      return OpSpec(AtomicOp::LowerBoundChange(
          other, std::min(n, event.lower_bound +
                                 static_cast<int>(rng_.UniformInt(1, 10)))));
    case OpKind::kXiDown:
      return OpSpec(AtomicOp::LowerBoundChange(
          other, event.lower_bound == 0
                     ? 0
                     : static_cast<int>(rng_.UniformInt(0, event.lower_bound - 1))));
    case OpKind::kTime:
    case OpKind::kNewEvent: {  // no compact spec; serving mixes never list it
      const double shift = rng_.UniformDouble(-2.0, 2.0);
      gepc::Interval time = event.time;
      time.start += shift;
      time.end += shift;
      return OpSpec(AtomicOp::TimeChange(other, time));
    }
  }
  return "";
}

AtomicOp MakeOfflineOp(OpKind kind, const Instance& instance, const Plan& plan,
                       Rng* rng) {
  const int n = instance.num_users();
  const int m = instance.num_events();
  const UserId user = RandomIndex(rng, static_cast<size_t>(n));
  EventId event = RandomIndex(rng, static_cast<size_t>(m));
  // Retries a few random events for one that satisfies `want`.
  auto pick = [&](auto want) {
    for (int tries = 0; tries < 4 * m && !want(event); ++tries) {
      event = RandomIndex(rng, static_cast<size_t>(m));
    }
  };
  switch (kind) {
    case OpKind::kMu: {
      const std::vector<EventId>& planned = plan.events_of(user);
      if (!planned.empty() && rng->Bernoulli(0.5)) {
        return AtomicOp::UtilityChange(
            user, planned[static_cast<size_t>(RandomIndex(rng, planned.size()))],
            0.0);
      }
      return AtomicOp::UtilityChange(user, event, rng->UniformDouble());
    }
    case OpKind::kBudget:
      return AtomicOp::BudgetChange(
          user, instance.user(user).budget * rng->UniformDouble(0.6, 1.4));
    case OpKind::kEtaUp:
      return AtomicOp::UpperBoundChange(
          event, instance.event(event).upper_bound +
                     static_cast<int>(rng->UniformInt(1, 10)));
    case OpKind::kEtaDown: {
      pick([&](EventId j) { return plan.attendance(j) >= 2; });
      const int attendance = plan.attendance(event);
      if (attendance < 2) {
        return AtomicOp::UpperBoundChange(
            event, std::max(0, instance.event(event).upper_bound - 1));
      }
      return AtomicOp::UpperBoundChange(
          event, static_cast<int>(rng->UniformInt(attendance / 2, attendance - 1)));
    }
    case OpKind::kXiUp: {
      const int xi = instance.event(event).lower_bound;
      const int target = std::max(
          xi + 1, plan.attendance(event) + static_cast<int>(rng->UniformInt(1, 5)));
      return AtomicOp::LowerBoundChange(event, std::min(n, target));
    }
    case OpKind::kXiDown: {
      pick([&](EventId j) { return instance.event(j).lower_bound > 0; });
      const int xi = instance.event(event).lower_bound;
      return AtomicOp::LowerBoundChange(
          event, xi == 0 ? 0 : static_cast<int>(rng->UniformInt(0, xi - 1)));
    }
    case OpKind::kTime: {
      const double shift =
          rng->UniformDouble(0.5, 3.0) * (rng->Bernoulli(0.5) ? 1.0 : -1.0);
      gepc::Interval time = instance.event(event).time;
      time.start += shift;
      time.end += shift;
      return AtomicOp::TimeChange(event, time);
    }
    case OpKind::kNewEvent: {
      gepc::Event fresh = instance.event(event);
      fresh.location.x += rng->UniformDouble(-10.0, 10.0);
      fresh.location.y += rng->UniformDouble(-10.0, 10.0);
      fresh.lower_bound = std::min(n, static_cast<int>(rng->UniformInt(1, 10)));
      fresh.upper_bound =
          fresh.lower_bound + static_cast<int>(rng->UniformInt(5, 40));
      std::vector<double> utilities(static_cast<size_t>(n), 0.0);
      for (double& mu : utilities) {
        if (rng->Bernoulli(0.3)) mu = rng->UniformDouble();
      }
      return AtomicOp::NewEvent(fresh, std::move(utilities));
    }
  }
  return AtomicOp::BudgetChange(user, instance.user(user).budget);
}

}  // namespace perfbench
