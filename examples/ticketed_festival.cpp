// Ticketed festival: the Sec. VII extension in action. A festival weekend
// has free community events and ticketed headline shows; users have one
// budget covering travel AND admission fees. We plan the weekend, show how
// pricing shifts attendance, and let the organizer probe ticket prices for
// one show (higher fee -> fewer users can afford it -> risk of falling
// below the minimum audience).
//
//   $ ./build/examples/ticketed_festival

#include <cstdio>
#include <algorithm>
#include <vector>

#include "core/itinerary.h"
#include "data/generator.h"
#include "gepc/solver.h"

namespace {

gepc::Result<gepc::Instance> MakeFestival(double headline_fee) {
  gepc::GeneratorConfig config;
  config.num_users = 120;
  config.num_events = 16;
  config.mean_eta = 25.0;
  config.mean_xi = 5.0;
  config.conflict_ratio = 0.4;  // festival slots overlap a lot
  config.seed = 77;
  auto instance = GenerateInstance(config);
  if (!instance.ok()) return instance;
  // The four highest-capacity events become ticketed headline shows.
  std::vector<int> by_capacity;
  for (int j = 0; j < instance->num_events(); ++j) by_capacity.push_back(j);
  std::sort(by_capacity.begin(), by_capacity.end(), [&](int a, int b) {
    return instance->event(a).upper_bound > instance->event(b).upper_bound;
  });
  for (int k = 0; k < 4; ++k) {
    const int j = by_capacity[static_cast<size_t>(k)];
    std::vector<gepc::User> users(instance->users());
    std::vector<gepc::Event> events(instance->events());
    events[static_cast<size_t>(j)].fee = headline_fee;
    gepc::Instance priced(std::move(users), std::move(events));
    for (int i = 0; i < instance->num_users(); ++i) {
      for (int jj = 0; jj < instance->num_events(); ++jj) {
        priced.set_utility(i, jj, instance->utility(i, jj));
      }
    }
    *instance = std::move(priced);
  }
  return instance;
}

}  // namespace

int main() {
  std::printf("Ticket price sweep for the headline shows (budget covers "
              "travel + fees):\n\n");
  std::printf("%10s %14s %16s %14s\n", "fee", "total utility",
              "ticketed seats", "below minimum");
  for (double fee : {0.0, 10.0, 25.0, 50.0, 80.0}) {
    auto instance = MakeFestival(fee);
    if (!instance.ok()) {
      std::fprintf(stderr, "generation failed: %s\n",
                   instance.status().ToString().c_str());
      return 1;
    }
    auto result = SolveGepc(*instance, gepc::GepcOptions{});
    if (!result.ok()) {
      std::fprintf(stderr, "solve failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    // Headline shows = the four largest-capacity events (ticketed when
    // fee > 0); report their attendance at every price point.
    std::vector<int> by_capacity;
    for (int j = 0; j < instance->num_events(); ++j) by_capacity.push_back(j);
    std::sort(by_capacity.begin(), by_capacity.end(), [&](int a, int b) {
      return instance->event(a).upper_bound > instance->event(b).upper_bound;
    });
    int ticketed_attendance = 0;
    for (int k = 0; k < 4; ++k) {
      ticketed_attendance +=
          result->plan.attendance(by_capacity[static_cast<size_t>(k)]);
    }
    std::printf("%10.0f %14.2f %16d %14d\n", fee, result->total_utility,
                ticketed_attendance, result->events_below_lower_bound);
  }

  std::printf("\nSample itineraries at fee 25:\n\n");
  auto instance = MakeFestival(25.0);
  auto result = SolveGepc(*instance, gepc::GepcOptions{});
  if (!instance.ok() || !result.ok()) return 1;
  int shown = 0;
  for (const gepc::Itinerary& itinerary :
       BuildAllItineraries(*instance, result->plan)) {
    if (itinerary.total_fees <= 0.0) continue;  // show ticket buyers
    std::printf("%s\n", itinerary.ToString().c_str());
    if (++shown == 3) break;
  }
  std::printf("Higher ticket prices squeeze attendance toward free events; "
              "past some price the headline shows cannot fill their "
              "minimum audience.\n");
  return 0;
}
