// Organizer what-if: an event organizer weighs candidate changes to their
// event — raising the minimum attendance (Summer-Palace-style group
// discounts), shrinking the venue, or moving the slot — and sees the
// platform-wide consequences of each option before committing: new total
// utility, how many users would lose an event (dif), and whether the event
// would still be viable.
//
//   $ ./build/examples/organizer_whatif [event-id]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "data/cities.h"
#include "gepc/solver.h"
#include "iep/planner.h"

using gepc::AtomicOp;

int main(int argc, char** argv) {
  auto city = gepc::FindCity("Beijing");
  if (!city.ok()) return 1;
  auto instance = GenerateCity(*city, /*seed=*/99, /*scale=*/1.0);
  if (!instance.ok()) return 1;

  gepc::GepcOptions options;
  options.algorithm = gepc::GepcAlgorithm::kGreedy;
  auto initial = SolveGepc(*instance, options);
  if (!initial.ok()) return 1;

  // Pick the organizer's event: the best-attended one unless overridden.
  gepc::EventId event = argc > 1 ? std::atoi(argv[1]) : -1;
  if (event < 0 || event >= instance->num_events()) {
    event = 0;
    for (int j = 1; j < instance->num_events(); ++j) {
      if (initial->plan.attendance(j) > initial->plan.attendance(event)) {
        event = j;
      }
    }
  }
  const gepc::Event& e = instance->event(event);
  std::printf("Event e%d: xi=%d eta=%d, time %s, currently %d attendees.\n"
              "Baseline platform utility: %.2f\n\n",
              event, e.lower_bound, e.upper_bound,
              gepc::FormatInterval(e.time).c_str(),
              initial->plan.attendance(event), initial->total_utility);

  struct WhatIf {
    const char* description;
    AtomicOp op;
  };
  const int attendance = initial->plan.attendance(event);
  std::vector<WhatIf> scenarios = {
      {"require 3 more attendees (xi + 3)",
       AtomicOp::LowerBoundChange(event, attendance + 3)},
      {"move to a smaller room (eta = attendance / 2)",
       AtomicOp::UpperBoundChange(event, attendance / 2)},
      {"start two hours earlier",
       AtomicOp::TimeChange(event,
                            {e.time.start - 120, e.time.end - 120})},
      {"push into the evening (+4 h)",
       AtomicOp::TimeChange(event,
                            {e.time.start + 240, e.time.end + 240})},
  };

  std::printf("%-46s %12s %6s %10s %s\n", "what-if", "utility", "dif",
              "attendees", "viable?");
  for (const WhatIf& scenario : scenarios) {
    // Each what-if runs on a fresh planner seeded with the same morning
    // state, so scenarios are independent.
    auto planner = gepc::IncrementalPlanner::Create(*instance, initial->plan);
    if (!planner.ok()) return 1;
    auto result = planner->Apply(scenario.op);
    if (!result.ok()) {
      std::printf("%-46s rejected: %s\n", scenario.description,
                  result.status().ToString().c_str());
      continue;
    }
    const int new_attendance = planner->plan().attendance(event);
    const bool viable =
        new_attendance >= planner->instance().event(event).lower_bound;
    std::printf("%-46s %12.2f %6lld %10d %s\n", scenario.description,
                result->total_utility,
                static_cast<long long>(result->negative_impact),
                new_attendance, viable ? "yes" : "NO — would be cancelled");
  }

  std::printf("\n(dif = number of attendances existing users would lose; "
              "Definition 2's negative impact.)\n");
  return 0;
}
