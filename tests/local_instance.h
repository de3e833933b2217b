#ifndef GEPC_TESTS_LOCAL_INSTANCE_H_
#define GEPC_TESTS_LOCAL_INSTANCE_H_

#include <cstdint>

#include "core/instance.h"

namespace gepc {
namespace testing_support {

/// A seeded synthetic city with tight budgets (5-15% of the region), so
/// users' reachable disks are local and many of them are shard-interior:
/// the regime sharding and rebalancing target.
Instance MakeLocalInstance(int users, int events, uint64_t seed);

}  // namespace testing_support
}  // namespace gepc

#endif  // GEPC_TESTS_LOCAL_INSTANCE_H_
