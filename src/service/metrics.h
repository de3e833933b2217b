#ifndef GEPC_SERVICE_METRICS_H_
#define GEPC_SERVICE_METRICS_H_

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

#include "obs/metrics.h"

namespace gepc {

/// The counters the writer thread owns. The writer keeps them in plain
/// fields and publishes a copy with every ServiceSnapshot, so a Stats()
/// read sees them at the same moment as the plan they describe.
struct ServiceWriterStats {
  // Operation counters.
  /// Ops journaled and applied successfully, plus rebuilds that succeeded.
  uint64_t ops_applied = 0;
  /// Ops journaled but failed validation, ops whose journal append failed
  /// (never journaled, never applied), and rebuilds that failed.
  uint64_t ops_rejected = 0;
  int64_t negative_impact_total = 0;  ///< summed dif over applied ops

  /// Journal appends that failed transiently and were retried (each retry
  /// attempt counts once, whether or not it eventually succeeded).
  uint64_t journal_retries = 0;

  // Journal / snapshot.
  int64_t journal_bytes = 0;
  /// One publish per finished request, this snapshot's included.
  uint64_t snapshots_published = 0;

  // Checkpoint / compaction.
  uint64_t checkpoints_published = 0;
  uint64_t checkpoint_failures = 0;
  /// The newest checkpoint this run published or booted from; 0 with
  /// `last_checkpoint_time` unset when there is none.
  uint64_t last_checkpoint_version = 0;
  int64_t last_checkpoint_bytes = 0;
  /// Modification time of that checkpoint's file; Stats() derives the age.
  std::optional<std::filesystem::file_time_type> last_checkpoint_time;
  uint64_t journal_compactions = 0;
  /// Ops absorbed by checkpoints and compacted out of the journal; the
  /// journal's first row carries sequence journal_base_sequence + 1.
  uint64_t journal_base_sequence = 0;

  // How the service last booted (set by Recover, zeros for Create).
  bool recovered_from_checkpoint = false;
  uint64_t recovery_checkpoint_version = 0;
  uint64_t recovery_ops_replayed = 0;
  double recovery_ms = 0.0;

  // Shard rebalancing (all zero when the tracker is disabled).
  int rebalance_shards = 0;            ///< shards the live tracker maintains
  double shard_skew = 0.0;             ///< load skew max/mean (0 = balanced)
  uint64_t shard_boundary_users = 0;   ///< boundary users in the live cut
  uint64_t rebalances = 0;             ///< successful rebalances
  uint64_t rebalance_failures = 0;     ///< failed/aborted rebalances
  uint64_t shard_migrations = 0;       ///< incremental migrations applied
  uint64_t shard_users_migrated = 0;   ///< user reclassifications
  uint64_t shard_events_migrated = 0;  ///< events re-homed by migrations
  uint64_t shard_full_rebuilds = 0;    ///< migrations degraded to rebuilds
  uint64_t last_rebalance_version = 0; ///< sequence at the last rebalance
};

/// One coherent read of the service's built-in counters, returned by
/// PlanningService::Stats() and rendered by `gepc_serve`'s `stats` command:
/// the latest snapshot's writer counters plus what other threads produce.
struct ServiceStats : ServiceWriterStats {
  uint64_t ops_submitted = 0;  ///< accepted into the queue
  uint64_t ops_dropped = 0;    ///< submitted after shutdown / backpressure

  // Queue saturation.
  uint64_t queue_depth = 0;
  uint64_t queue_high_water = 0;
  uint64_t queue_capacity = 0;

  /// Mean of `apply_ms`, kept for existing callers.
  double apply_ms_mean = 0.0;
  /// Apply-latency distribution in milliseconds, journal append included
  /// (exact quantiles while the reservoir holds every observation — see
  /// obs::HistogramSnapshot).
  obs::HistogramSnapshot apply_ms;
  /// Queue residency per op: enqueue (Submit) to dequeue by the writer.
  obs::HistogramSnapshot queue_wait_ms;

  /// Seconds since `last_checkpoint_time` (-1 = no checkpoint).
  double last_checkpoint_age_seconds = -1.0;

  // Plan aggregates (from the latest snapshot).
  uint64_t snapshot_version = 0;
  double total_utility = 0.0;
  int64_t total_assignments = 0;
  int events_below_lower_bound = 0;

  // Memory (MemoryTracker; heap counters are 0 without the alloc hooks).
  int64_t heap_bytes = 0;
  int64_t peak_heap_bytes = 0;
  int64_t rss_bytes = 0;
};

/// What the service's producer threads and its writer record outside the
/// snapshot: submissions, drops and the two latency histograms, built on
/// the lock-free obs value types so a Record* call is a handful of relaxed
/// atomic ops. Instances are standalone (NOT in the global obs::Registry):
/// ServiceStats is per-service and a process may run several services; the
/// process-global registry carries the solver-phase and journal metrics
/// instead.
///
/// Latency histograms honor obs::SetEnabled(false) like every other
/// time-based instrument, so the apply_ms/queue_wait_ms fields read empty
/// when observability is off; the counters always record.
class ServiceMetrics {
 public:
  void RecordSubmitted() { submitted_.Increment(); }
  void RecordDropped() { dropped_.Increment(); }
  void RecordApplyMs(double apply_ms) { apply_ms_.Observe(apply_ms); }
  void RecordQueueWait(double wait_ms) { queue_wait_ms_.Observe(wait_ms); }

  /// Fills the fields of `stats` this class records.
  void FillStats(ServiceStats* stats) const {
    stats->ops_submitted = submitted_.value();
    stats->ops_dropped = dropped_.value();
    stats->apply_ms = apply_ms_.Snapshot();
    stats->queue_wait_ms = queue_wait_ms_.Snapshot();
    stats->apply_ms_mean = stats->apply_ms.Mean();
  }

 private:
  obs::Counter submitted_;
  obs::Counter dropped_;
  obs::Histogram apply_ms_{obs::Histogram::DefaultLatencyBucketsMs()};
  obs::Histogram queue_wait_ms_{obs::Histogram::DefaultLatencyBucketsMs()};
};

/// Prometheus text exposition of one ServiceStats read (gepc_service_*
/// metrics). `gepc_serve` concatenates this with the global registry's
/// RenderPrometheusText() for its `metrics` command.
std::string RenderServiceStatsText(const ServiceStats& stats);

}  // namespace gepc

#endif  // GEPC_SERVICE_METRICS_H_
