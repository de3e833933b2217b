#include "service/metrics.h"

namespace gepc {

std::string RenderServiceStatsText(const ServiceStats& stats) {
  std::string out;
  obs::AppendCounterText("gepc_service_ops_submitted_total",
                         "operations accepted into the queue",
                         stats.ops_submitted, &out);
  obs::AppendCounterText(
      "gepc_service_ops_applied_total",
      "operations journaled and applied, plus rebuilds that succeeded",
      stats.ops_applied, &out);
  obs::AppendCounterText(
      "gepc_service_ops_rejected_total",
      "operations journaled but failed validation, operations whose journal "
      "append failed, and rebuilds that failed",
      stats.ops_rejected, &out);
  obs::AppendCounterText("gepc_service_ops_dropped_total",
                         "operations dropped by shutdown or backpressure",
                         stats.ops_dropped, &out);
  obs::AppendCounterText("gepc_service_journal_retries_total",
                         "transient journal-append retries",
                         stats.journal_retries, &out);
  obs::AppendCounterText("gepc_service_snapshots_published_total",
                         "snapshots published", stats.snapshots_published,
                         &out);
  obs::AppendCounterText("gepc_service_checkpoints_published_total",
                         "durable checkpoints published",
                         stats.checkpoints_published, &out);
  obs::AppendCounterText("gepc_service_checkpoint_failures_total",
                         "checkpoint publications that failed",
                         stats.checkpoint_failures, &out);
  obs::AppendCounterText("gepc_service_journal_compactions_total",
                         "journal compactions after checkpoints",
                         stats.journal_compactions, &out);
  obs::AppendGaugeText("gepc_service_negative_impact_total",
                       "summed dif over applied operations",
                       static_cast<double>(stats.negative_impact_total), &out);
  obs::AppendGaugeText("gepc_service_queue_depth", "operations waiting",
                       static_cast<double>(stats.queue_depth), &out);
  obs::AppendGaugeText("gepc_service_queue_high_water",
                       "maximum queue depth observed",
                       static_cast<double>(stats.queue_high_water), &out);
  obs::AppendGaugeText("gepc_service_queue_capacity", "queue bound",
                       static_cast<double>(stats.queue_capacity), &out);
  obs::AppendGaugeText("gepc_service_journal_bytes", "journal file size",
                       static_cast<double>(stats.journal_bytes), &out);
  obs::AppendGaugeText("gepc_service_journal_base_sequence",
                       "ops compacted out of the journal",
                       static_cast<double>(stats.journal_base_sequence), &out);
  obs::AppendGaugeText("gepc_service_last_checkpoint_version",
                       "sequence captured by the newest checkpoint",
                       static_cast<double>(stats.last_checkpoint_version),
                       &out);
  obs::AppendGaugeText("gepc_service_last_checkpoint_bytes",
                       "size of the newest checkpoint file",
                       static_cast<double>(stats.last_checkpoint_bytes), &out);
  obs::AppendGaugeText("gepc_service_last_checkpoint_age_seconds",
                       "seconds since the newest checkpoint (-1 = never)",
                       stats.last_checkpoint_age_seconds, &out);
  obs::AppendGaugeText("gepc_service_recovered_from_checkpoint",
                       "1 when the last boot loaded a checkpoint",
                       stats.recovered_from_checkpoint ? 1.0 : 0.0, &out);
  obs::AppendGaugeText("gepc_service_recovery_ops_replayed",
                       "journal ops replayed at the last boot",
                       static_cast<double>(stats.recovery_ops_replayed), &out);
  obs::AppendGaugeText("gepc_service_recovery_ms",
                       "wall time of the last recovery resolution",
                       stats.recovery_ms, &out);
  obs::AppendGaugeText("gepc_service_snapshot_version",
                       "sequence of the latest snapshot",
                       static_cast<double>(stats.snapshot_version), &out);
  obs::AppendGaugeText("gepc_service_total_utility",
                       "total utility of the served plan", stats.total_utility,
                       &out);
  obs::AppendGaugeText("gepc_service_total_assignments",
                       "assignments in the served plan",
                       static_cast<double>(stats.total_assignments), &out);
  obs::AppendGaugeText("gepc_service_events_below_lower_bound",
                       "events short of xi_j in the served plan",
                       static_cast<double>(stats.events_below_lower_bound),
                       &out);
  obs::AppendGaugeText("gepc_service_rss_bytes", "resident set size",
                       static_cast<double>(stats.rss_bytes), &out);
  obs::AppendGaugeText("gepc_service_rebalance_shards",
                       "shards the live rebalance tracker maintains",
                       static_cast<double>(stats.rebalance_shards), &out);
  obs::AppendGaugeText("gepc_service_shard_skew",
                       "per-shard load skew, max over mean (0 = balanced)",
                       stats.shard_skew, &out);
  obs::AppendGaugeText("gepc_service_shard_boundary_users",
                       "boundary users in the live tracked partition",
                       static_cast<double>(stats.shard_boundary_users), &out);
  obs::AppendCounterText("gepc_service_rebalances_total",
                         "successful shard rebalances", stats.rebalances,
                         &out);
  obs::AppendCounterText("gepc_service_rebalance_failures_total",
                         "failed or aborted shard rebalances",
                         stats.rebalance_failures, &out);
  obs::AppendCounterText("gepc_service_shard_migrations_total",
                         "incremental shard migrations applied",
                         stats.shard_migrations, &out);
  obs::AppendCounterText("gepc_service_shard_users_migrated_total",
                         "user reclassifications during migrations",
                         stats.shard_users_migrated, &out);
  obs::AppendCounterText("gepc_service_shard_events_migrated_total",
                         "events re-homed during migrations",
                         stats.shard_events_migrated, &out);
  obs::AppendCounterText("gepc_service_shard_full_rebuilds_total",
                         "migrations degraded to a full partition rebuild",
                         stats.shard_full_rebuilds, &out);
  obs::AppendGaugeText("gepc_service_last_rebalance_version",
                       "sequence at the last successful rebalance",
                       static_cast<double>(stats.last_rebalance_version),
                       &out);
  obs::AppendHistogramText("gepc_service_apply_ms",
                           "apply latency (journal append included)",
                           stats.apply_ms, &out);
  obs::AppendSummaryText("gepc_service_apply_ms_summary",
                         "apply latency quantiles", stats.apply_ms, &out);
  obs::AppendHistogramText("gepc_service_queue_wait_ms",
                           "queue residency before the writer dequeues",
                           stats.queue_wait_ms, &out);
  obs::AppendSummaryText("gepc_service_queue_wait_ms_summary",
                         "queue-wait quantiles", stats.queue_wait_ms, &out);
  return out;
}

}  // namespace gepc
