#ifndef GEPC_SERVICE_SNAPSHOT_H_
#define GEPC_SERVICE_SNAPSHOT_H_

#include <cstdint>
#include <memory>

#include "core/instance.h"
#include "core/plan.h"
#include "service/metrics.h"

namespace gepc {

/// An immutable, internally consistent view of the service state, published
/// by the writer thread once per finished request. Readers hold a
/// `shared_ptr<const ServiceSnapshot>` and can keep querying it for as long
/// as they like while the writer races ahead — the snapshot never mutates,
/// so no reader ever blocks the apply loop.
struct ServiceSnapshot {
  /// Number of journal operations absorbed when this snapshot was taken
  /// (monotone; snapshot version v reflects ops 1..v, rejected ones
  /// included as no-ops).
  uint64_t version = 0;

  std::shared_ptr<const Instance> instance;
  std::shared_ptr<const Plan> plan;

  // Derived aggregates, precomputed so `stats` queries cost O(1).
  double total_utility = 0.0;
  int64_t total_assignments = 0;
  int events_below_lower_bound = 0;

  /// The writer's counters as of this snapshot (Stats() starts from them).
  ServiceWriterStats writer;
};

/// Copies (instance, plan) into a fresh immutable snapshot, fills the
/// derived aggregates and stores `writer` as its counters. The instance
/// copy shares the utility matrix and the conflict graph with `instance`,
/// so it costs O(users + events); the plan is copied whole.
std::shared_ptr<const ServiceSnapshot> MakeServiceSnapshot(
    const Instance& instance, const Plan& plan, uint64_t version,
    const ServiceWriterStats& writer = {});

}  // namespace gepc

#endif  // GEPC_SERVICE_SNAPSHOT_H_
