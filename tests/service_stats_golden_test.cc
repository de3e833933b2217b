// Pins what a service session reports through `stats` and the
// gepc_service_* Prometheus block: the ordered key list of the `stats`
// response, every `# TYPE` line of RenderServiceStatsText, and the values
// of the fields a seeded session fixes (op counters, journal, checkpoint,
// snapshot, plan totals and shard-migration counters). Timing, memory,
// skew and publish counts are left out: they vary run to run. The
// literals were taken before the writer's stats moved into the snapshot;
// a change to how stats are published must keep them.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "gepc/solver.h"
#include "iep/planner.h"
#include "service/dispatch.h"
#include "service/metrics.h"
#include "service/planning_service.h"
#include "service/torture.h"
#include "tests/local_instance.h"
#include "tests/temp_path.h"

namespace gepc {
namespace {

namespace fs = std::filesystem;

/// Top-level keys of a flat JsonWriter object, in order: each key is the
/// string right after the opening brace or a comma.
std::vector<std::string> ResponseKeys(const std::string& json) {
  std::vector<std::string> keys;
  bool in_string = false;
  char before_string = 0;
  char last = 0;
  size_t start = 0;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        if (before_string == '{' || before_string == ',') {
          keys.push_back(json.substr(start, i - start));
        }
        last = c;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
      before_string = last;
      start = i + 1;
    }
    last = c;
  }
  return keys;
}

std::vector<std::string> TypeLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("# TYPE ", 0) == 0) lines.push_back(line);
  }
  return lines;
}

class ServiceStatsGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_level_ = GetLogLevel();
    SetLogLevel(LogLevel::kError);
    root_ = testing_support::TestTempPath("session");
    std::error_code ec;
    fs::remove_all(root_, ec);
    fs::create_directories(root_, ec);
    ASSERT_FALSE(ec) << ec.message();

    Instance instance = testing_support::MakeLocalInstance(80, 14, 4);
    auto solved = SolveGepc(instance, GepcOptions{});
    ASSERT_TRUE(solved.ok()) << solved.status();
    auto scratch = IncrementalPlanner::Create(instance, solved->plan);
    ASSERT_TRUE(scratch.ok()) << scratch.status();
    ops_ = GenerateTortureOps(&*scratch, 60, 21);

    ServiceOptions options;
    options.journal_path = root_ + "/service.gops";
    options.checkpoint_dir = root_ + "/ckpt";
    options.checkpoint_every = 16;
    options.rebalance_shards = 3;
    options.rebalance_every = 0;
    auto service = PlanningService::Create(std::move(instance),
                                           solved->plan, options);
    ASSERT_TRUE(service.ok()) << service.status();
    service_ = *std::move(service);

    for (const AtomicOp& op : ops_) service_->Apply(op);
    const CheckpointOutcome checkpoint = service_->Checkpoint();
    ASSERT_TRUE(checkpoint.published) << checkpoint.error;
    const RebalanceOutcome rebalance = service_->Rebalance();
    ASSERT_TRUE(rebalance.rebalanced) << rebalance.error;
    service_->Drain();
  }

  void TearDown() override {
    if (service_) service_->Shutdown();
    SetLogLevel(previous_level_);
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  LogLevel previous_level_ = LogLevel::kInfo;
  std::string root_;
  std::vector<AtomicOp> ops_;
  std::unique_ptr<PlanningService> service_;
};

TEST_F(ServiceStatsGoldenTest, StatsResponseKeyOrder) {
  const CommandDispatcher dispatcher(service_.get(), DispatchDefaults{});
  const DispatchOutcome stats = dispatcher.Dispatch(R"({"cmd":"stats"})");
  const std::vector<std::string> expected = {
      "ok",
      "role",
      "net_compress",
      "users",
      "events",
      "ops_submitted",
      "ops_applied",
      "ops_rejected",
      "ops_dropped",
      "negative_impact_total",
      "queue_depth",
      "queue_high_water",
      "queue_capacity",
      "apply_ms_mean",
      "apply_ms_p50",
      "apply_ms_p90",
      "apply_ms_p99",
      "apply_ms_max",
      "apply_ms_count",
      "apply_ms_exact",
      "queue_wait_ms_mean",
      "queue_wait_ms_p50",
      "queue_wait_ms_p90",
      "queue_wait_ms_p99",
      "queue_wait_ms_max",
      "journal_retries",
      "journal_bytes",
      "journal_base",
      "journal_compactions",
      "snapshots_published",
      "checkpoints_published",
      "checkpoint_failures",
      "last_checkpoint_version",
      "last_checkpoint_bytes",
      "last_checkpoint_age_s",
      "recovered_from_checkpoint",
      "recovery_ops_replayed",
      "recovery_ms",
      "version",
      "utility",
      "assignments",
      "below_xi",
      "heap_bytes",
      "peak_heap_bytes",
      "rss_bytes",
      "rebalance_shards",
      "shard_skew",
      "shard_boundary_users",
      "rebalances",
      "rebalance_failures",
      "shard_migrations",
      "last_rebalance_version",
  };
  EXPECT_EQ(ResponseKeys(stats.response), expected) << stats.response;
}

TEST_F(ServiceStatsGoldenTest, PrometheusTypeLines) {
  const std::vector<std::string> expected = {
      "# TYPE gepc_service_ops_submitted_total counter",
      "# TYPE gepc_service_ops_applied_total counter",
      "# TYPE gepc_service_ops_rejected_total counter",
      "# TYPE gepc_service_ops_dropped_total counter",
      "# TYPE gepc_service_journal_retries_total counter",
      "# TYPE gepc_service_snapshots_published_total counter",
      "# TYPE gepc_service_checkpoints_published_total counter",
      "# TYPE gepc_service_checkpoint_failures_total counter",
      "# TYPE gepc_service_journal_compactions_total counter",
      "# TYPE gepc_service_negative_impact_total gauge",
      "# TYPE gepc_service_queue_depth gauge",
      "# TYPE gepc_service_queue_high_water gauge",
      "# TYPE gepc_service_queue_capacity gauge",
      "# TYPE gepc_service_journal_bytes gauge",
      "# TYPE gepc_service_journal_base_sequence gauge",
      "# TYPE gepc_service_last_checkpoint_version gauge",
      "# TYPE gepc_service_last_checkpoint_bytes gauge",
      "# TYPE gepc_service_last_checkpoint_age_seconds gauge",
      "# TYPE gepc_service_recovered_from_checkpoint gauge",
      "# TYPE gepc_service_recovery_ops_replayed gauge",
      "# TYPE gepc_service_recovery_ms gauge",
      "# TYPE gepc_service_snapshot_version gauge",
      "# TYPE gepc_service_total_utility gauge",
      "# TYPE gepc_service_total_assignments gauge",
      "# TYPE gepc_service_events_below_lower_bound gauge",
      "# TYPE gepc_service_rss_bytes gauge",
      "# TYPE gepc_service_rebalance_shards gauge",
      "# TYPE gepc_service_shard_skew gauge",
      "# TYPE gepc_service_shard_boundary_users gauge",
      "# TYPE gepc_service_rebalances_total counter",
      "# TYPE gepc_service_rebalance_failures_total counter",
      "# TYPE gepc_service_shard_migrations_total counter",
      "# TYPE gepc_service_shard_users_migrated_total counter",
      "# TYPE gepc_service_shard_events_migrated_total counter",
      "# TYPE gepc_service_shard_full_rebuilds_total counter",
      "# TYPE gepc_service_last_rebalance_version gauge",
      "# TYPE gepc_service_apply_ms histogram",
      "# TYPE gepc_service_apply_ms_summary summary",
      "# TYPE gepc_service_queue_wait_ms histogram",
      "# TYPE gepc_service_queue_wait_ms_summary summary",
  };
  EXPECT_EQ(TypeLines(RenderServiceStatsText(service_->Stats())), expected);
}

TEST_F(ServiceStatsGoldenTest, DeterministicValues) {
  const ServiceStats s = service_->Stats();
  // 60 ops plus the checkpoint and rebalance requests.
  EXPECT_EQ(s.ops_submitted, 62u);
  EXPECT_EQ(s.ops_applied, 50u);
  EXPECT_EQ(s.ops_rejected, 10u);
  EXPECT_EQ(s.ops_dropped, 0u);
  EXPECT_EQ(s.negative_impact_total, 0);
  EXPECT_EQ(s.journal_bytes, 1607);
  EXPECT_EQ(s.journal_base_sequence, 48u);
  EXPECT_EQ(s.journal_compactions, 3u);
  EXPECT_EQ(s.checkpoints_published, 4u);
  EXPECT_EQ(s.checkpoint_failures, 0u);
  EXPECT_EQ(s.last_checkpoint_version, 60u);
  EXPECT_EQ(s.snapshot_version, 60u);
  EXPECT_DOUBLE_EQ(s.total_utility, 5.4567134401536013);
  EXPECT_EQ(s.total_assignments, 17);
  EXPECT_EQ(s.events_below_lower_bound, 10);
  EXPECT_EQ(s.rebalance_shards, 3);
  EXPECT_EQ(s.shard_boundary_users, 42u);
  EXPECT_EQ(s.rebalances, 1u);
  EXPECT_EQ(s.rebalance_failures, 0u);
  EXPECT_EQ(s.shard_migrations, 21u);
  EXPECT_EQ(s.shard_users_migrated, 7u);
  EXPECT_EQ(s.shard_events_migrated, 0u);
  EXPECT_EQ(s.shard_full_rebuilds, 0u);
  EXPECT_EQ(s.last_rebalance_version, 60u);
}

}  // namespace
}  // namespace gepc
