#include "tests/local_instance.h"

#include <gtest/gtest.h>

#include "data/generator.h"

namespace gepc {
namespace testing_support {

Instance MakeLocalInstance(int users, int events, uint64_t seed) {
  GeneratorConfig config;
  config.num_users = users;
  config.num_events = events;
  config.seed = seed;
  config.budget_min_fraction = 0.05;
  config.budget_max_fraction = 0.15;
  auto instance = GenerateInstance(config);
  EXPECT_TRUE(instance.ok()) << instance.status();
  return *std::move(instance);
}

}  // namespace testing_support
}  // namespace gepc
