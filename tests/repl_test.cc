// Replication subsystem (src/repl/): wire codecs, checkpoint-ship +
// live-tail round trips over a real socket pair, follower write redirects,
// lag gauges, retention pinning, promotion, and the three repl.* fault
// injection points.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "ckpt/checkpoint.h"
#include "common/logging.h"
#include "fault/fault.h"
#include "iep/op_spec.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "repl/follower.h"
#include "repl/source.h"
#include "repl/wire.h"
#include "service/dispatch.h"
#include "service/planning_service.h"
#include "service/torture.h"
#include "tests/paper_example.h"

namespace gepc {
namespace repl {
namespace {

namespace fs = std::filesystem;
using testing_support::MakePaperInstance;
using testing_support::MakePaperPlan;

constexpr int kWaitMs = 10000;

AtomicOp Op(const std::string& spec) {
  auto op = ParseOpSpec(spec);
  EXPECT_TRUE(op.ok()) << spec << ": " << op.status().ToString();
  return *op;
}

// ---------------------------------------------------------------------------
// Wire codecs
// ---------------------------------------------------------------------------

TEST(ReplWireTest, SyncRequestRoundTrip) {
  SyncRequest request;
  request.have = 41;
  request.need_base = true;
  auto parsed = ParseSyncRequest(EncodeSyncRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->have, 41u);
  EXPECT_TRUE(parsed->need_base);

  request.need_base = false;
  parsed = ParseSyncRequest(EncodeSyncRequest(request));
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->need_base);
}

TEST(ReplWireTest, SyncRequestRejectsGarbage) {
  EXPECT_FALSE(ParseSyncRequest("not json").ok());
  EXPECT_FALSE(ParseSyncRequest("{}").ok());
  EXPECT_FALSE(ParseSyncRequest(R"({"have":-3})").ok());
}

TEST(ReplWireTest, CkptBeginRoundTrip) {
  CkptBegin begin;
  begin.version = 12;
  begin.bytes = 4096;
  auto parsed = ParseCkptBegin(EncodeCkptBegin(begin));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->version, 12u);
  EXPECT_EQ(parsed->bytes, 4096u);
  EXPECT_FALSE(ParseCkptBegin(R"({"version":1})").ok());
}

TEST(ReplWireTest, HeartbeatRoundTrip) {
  auto parsed = ParseHeartbeat(EncodeHeartbeat(99));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, 99u);
  EXPECT_FALSE(ParseHeartbeat("{}").ok());
}

TEST(ReplWireTest, RowRoundTrip) {
  const AtomicOp op = Op("budget:1:250");
  auto encoded = EncodeRow(7, op);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  // "<seq> <GOPS1 row>", no trailing newline: the follower can append
  // "\n" and journal the byte-identical row.
  EXPECT_EQ(encoded->substr(0, 2), "7 ");
  EXPECT_EQ(encoded->back() != '\n', true);

  auto parsed = ParseRow(*encoded);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->sequence, 7u);
  auto reencoded = EncodeRow(7, parsed->op);
  ASSERT_TRUE(reencoded.ok());
  EXPECT_EQ(*encoded, *reencoded);
}

TEST(ReplWireTest, RowRejectsDefects) {
  const AtomicOp op = Op("eta:0:5");
  auto encoded = EncodeRow(3, op);
  ASSERT_TRUE(encoded.ok());
  EXPECT_FALSE(ParseRow("").ok());
  EXPECT_FALSE(ParseRow("nodigits").ok());
  EXPECT_FALSE(ParseRow("0 " + encoded->substr(2)).ok());  // seq must be > 0
  EXPECT_FALSE(ParseRow("3").ok());                        // row text missing
  EXPECT_FALSE(ParseRow("3 complete garbage").ok());
}

TEST(ReplWireTest, ReplErrorRoundTrip) {
  const std::string payload = EncodeReplError("sync \"died\"");
  EXPECT_EQ(ParseReplError(payload), "sync \"died\"");
  // Lenient by design: a mangled error payload still yields something.
  EXPECT_FALSE(ParseReplError("not json").empty());
}

// ---------------------------------------------------------------------------
// End-to-end source/follower fixture
// ---------------------------------------------------------------------------

class ReplTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Registry::Global().Reset();
    obs::SetEnabled(true);
    previous_level_ = GetLogLevel();
    SetLogLevel(LogLevel::kError);
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = ::testing::TempDir() + "/repl_" + info->name();
    std::error_code ec;
    fs::remove_all(root_, ec);
    fs::create_directories(root_ + "/primary/ckpt", ec);
    fs::create_directories(root_ + "/follower/ckpt", ec);
    ASSERT_FALSE(ec) << ec.message();
  }

  void TearDown() override {
    follower_.reset();
    source_.reset();
    server_.reset();
    primary_.reset();
    fault::Registry::Global().Reset();
    SetLogLevel(previous_level_);
  }

  void StartPrimary(int checkpoint_every = 0) {
    ServiceOptions options;
    options.journal_path = root_ + "/primary/j.gops";
    options.checkpoint_dir = root_ + "/primary/ckpt";
    options.checkpoint_every = checkpoint_every;
    auto service =
        PlanningService::Create(MakePaperInstance(), MakePaperPlan(), options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    primary_ = std::move(*service);

    ReplicationSourceOptions source_options;
    source_options.journal_path = options.journal_path;
    source_options.checkpoint_dir = options.checkpoint_dir;
    source_options.heartbeat_interval_ms = 50;
    source_ = std::make_unique<ReplicationSource>(primary_.get(),
                                                  source_options);

    net::NetServerOptions server_options;
    server_options.port = 0;
    server_options.read_workers = 1;
    server_options.op_workers = 1;
    server_ = std::make_unique<net::NetServer>(
        std::move(server_options), [](const std::string&) {
          return net::HandlerResult{R"({"ok":false,"error":"repl only"})",
                                    false};
        });
    ASSERT_TRUE(source_->Attach(server_.get()).ok());
    ASSERT_TRUE(server_->Start().ok());
  }

  FollowerOptions FollowerOpts() const {
    FollowerOptions options;
    options.primary_port = server_->port();
    options.journal_path = root_ + "/follower/j.gops";
    options.checkpoint_dir = root_ + "/follower/ckpt";
    options.promote_after_ms = 0;  // tests promote manually
    options.heartbeat_timeout_ms = 1000;
    options.bootstrap_timeout_ms = 8000;
    options.reconnect_backoff_initial_ms = 20;
    options.reconnect_backoff_max_ms = 100;
    return options;
  }

  void StartFollower() {
    auto started = Follower::Start(FollowerOpts(), &role_);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    follower_ = std::move(*started);
  }

  std::string StateOf(const PlanningService& service) {
    const auto snapshot = service.snapshot();
    auto state = SerializeServiceState(*snapshot->instance, *snapshot->plan,
                                       snapshot->version);
    EXPECT_TRUE(state.ok());
    return state.ok() ? *state : "";
  }

  std::string root_;
  LogLevel previous_level_ = LogLevel::kInfo;
  ServeRole role_;
  std::unique_ptr<PlanningService> primary_;
  std::unique_ptr<ReplicationSource> source_;
  std::unique_ptr<net::NetServer> server_;
  std::unique_ptr<Follower> follower_;
};

TEST_F(ReplTest, CheckpointBootstrapThenLiveTail) {
  StartPrimary();
  // Rows committed before the follower exists force a checkpoint ship: an
  // empty follower cannot bridge from the journal alone.
  ASSERT_TRUE(primary_->Apply(Op("budget:0:200")).applied);
  ASSERT_TRUE(primary_->Apply(Op("eta:1:4")).applied);
  StartFollower();
  EXPECT_TRUE(role_.follower.load());
  ASSERT_TRUE(follower_->WaitForApplied(2, kWaitMs));
  EXPECT_EQ(follower_->stats().checkpoints_received +
                follower_->stats().rows_applied >
            0,
            true);

  // Live rows fan out through the commit hook.
  ASSERT_TRUE(primary_->Apply(Op("budget:2:300")).applied);
  ASSERT_TRUE(primary_->Apply(Op("xi:0:1")).applied);
  ASSERT_TRUE(follower_->WaitForApplied(4, kWaitMs));

  EXPECT_EQ(StateOf(*follower_->service()), StateOf(*primary_));
  EXPECT_TRUE(follower_->stats().connected);

  const ReplicationSourceStats stats = source_->stats();
  EXPECT_EQ(stats.followers, 1u);
  EXPECT_EQ(stats.syncs_completed, 1u);
  EXPECT_GE(stats.rows_shipped, 2u);
}

TEST_F(ReplTest, LagGaugesExposedAndCaughtUp) {
  StartPrimary();
  StartFollower();
  ASSERT_TRUE(primary_->Apply(Op("budget:0:150")).applied);
  ASSERT_TRUE(follower_->WaitForApplied(1, kWaitMs));
  // Give the next heartbeat a chance to confirm the catch-up.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  const auto lag_rows =
      obs::Registry::Global().GetGauge("gepc_repl_lag_rows", "");
  const auto lag_ms = obs::Registry::Global().GetGauge("gepc_repl_lag_ms", "");
  EXPECT_EQ(lag_rows->value(), 0);
  EXPECT_EQ(lag_ms->value(), 0);

  const std::string text = obs::Registry::Global().RenderPrometheusText();
  EXPECT_NE(text.find("gepc_repl_lag_rows"), std::string::npos);
  EXPECT_NE(text.find("gepc_repl_lag_ms"), std::string::npos);
  EXPECT_NE(text.find("gepc_repl_rows_shipped_total"), std::string::npos);
}

TEST_F(ReplTest, DispatcherRedirectsWritesWhileFollowing) {
  StartPrimary();
  StartFollower();
  ASSERT_TRUE(follower_->WaitForApplied(0, kWaitMs));

  DispatchDefaults defaults;
  const CommandDispatcher dispatcher(follower_->service(), defaults, &role_);

  const DispatchOutcome apply =
      dispatcher.Dispatch(R"({"cmd":"apply","op":"budget:0:120"})");
  EXPECT_NE(apply.response.find("\"redirect\""), std::string::npos);
  EXPECT_NE(apply.response.find("127.0.0.1:"), std::string::npos);

  const DispatchOutcome rebuild = dispatcher.Dispatch(R"({"cmd":"rebuild"})");
  EXPECT_NE(rebuild.response.find("\"redirect\""), std::string::npos);

  // Reads flow: the follower serves snapshots like a primary.
  const DispatchOutcome stats = dispatcher.Dispatch(R"({"cmd":"stats"})");
  EXPECT_NE(stats.response.find("\"role\":\"follower\""), std::string::npos);
  const DispatchOutcome read =
      dispatcher.Dispatch(R"({"cmd":"query_user","user":0})");
  EXPECT_NE(read.response.find("\"ok\":true"), std::string::npos);
}

TEST_F(ReplTest, PromotionFlipsRoleAndAcceptsWrites) {
  StartPrimary();
  ASSERT_TRUE(primary_->Apply(Op("budget:0:175")).applied);
  StartFollower();
  ASSERT_TRUE(follower_->WaitForApplied(1, kWaitMs));

  // Kill the primary the way a crash looks from the follower: sockets die.
  source_->Stop();
  server_->Stop();
  const std::string final_primary_state = StateOf(*primary_);
  primary_.reset();

  // The tail thread is still reconnecting; PromoteNow wakes it through its
  // client's Interrupt() and never touches the socket itself.
  ASSERT_TRUE(follower_->PromoteNow().ok());
  EXPECT_TRUE(follower_->promoted());
  EXPECT_FALSE(role_.follower.load());
  EXPECT_EQ(StateOf(*follower_->service()), final_primary_state);

  const ApplyOutcome outcome = follower_->service()->Apply(Op("eta:0:6"));
  EXPECT_TRUE(outcome.applied);
  EXPECT_EQ(outcome.sequence, 2u);

  // Idempotent: a second promotion is a no-op success.
  EXPECT_TRUE(follower_->PromoteNow().ok());

  DispatchDefaults defaults;
  const CommandDispatcher dispatcher(follower_->service(), defaults, &role_);
  const DispatchOutcome stats = dispatcher.Dispatch(R"({"cmd":"stats"})");
  EXPECT_NE(stats.response.find("\"role\":\"primary\""), std::string::npos);
}

TEST_F(ReplTest, PromoteWhileTailingALivePrimary) {
  // PromoteNow on this thread wakes the connected tail thread through its
  // client's Interrupt(); only the tail thread closes the socket.
  StartPrimary();
  StartFollower();
  ASSERT_TRUE(follower_->WaitForApplied(0, kWaitMs));
  ASSERT_TRUE(follower_->PromoteNow().ok());
  EXPECT_FALSE(role_.follower.load());
}

TEST_F(ReplTest, RetentionPinHoldsCompactionForSyncingFollower) {
  // checkpoint_every=2 would normally compact the journal up to each new
  // checkpoint; a registered follower's pin must hold the base back.
  StartPrimary(/*checkpoint_every=*/2);
  StartFollower();
  ASSERT_TRUE(follower_->WaitForApplied(0, kWaitMs));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(primary_->Apply(Op("budget:1:" + std::to_string(150 + i)))
                    .applied);
  }
  ASSERT_TRUE(follower_->WaitForApplied(6, kWaitMs));

  // The live follower's pin rides the fan-out, so compaction may advance —
  // but never beyond what the follower has been sent.
  const ServiceStats stats = primary_->Stats();
  EXPECT_LE(stats.journal_base_sequence, 6u);

  // With the follower detached the pin releases and checkpointing compacts
  // freely again.
  follower_->Stop();
  follower_.reset();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto outcome = primary_->Checkpoint();
  EXPECT_TRUE(outcome.published) << outcome.error;
  EXPECT_EQ(primary_->retention_pin(), kNoRetentionPin);
}

TEST_F(ReplTest, FollowerRestartUsesLocalStateThenResumesTail) {
  StartPrimary();
  ASSERT_TRUE(primary_->Apply(Op("budget:0:210")).applied);
  StartFollower();
  ASSERT_TRUE(follower_->WaitForApplied(1, kWaitMs));
  const uint64_t checkpoints_before = follower_->stats().checkpoints_received;
  follower_->Stop();
  follower_.reset();
  role_.follower.store(false);
  role_.primary.clear();

  // More rows land while the follower is down.
  ASSERT_TRUE(primary_->Apply(Op("eta:1:5")).applied);
  ASSERT_TRUE(primary_->Apply(Op("budget:2:140")).applied);

  // Restart: local checkpoint + journal bridge the gap, so no second
  // checkpoint ship is needed.
  StartFollower();
  ASSERT_TRUE(follower_->WaitForApplied(3, kWaitMs));
  EXPECT_EQ(StateOf(*follower_->service()), StateOf(*primary_));
  EXPECT_EQ(follower_->stats().checkpoints_received, 0u)
      << "restart should bridge from local state, not re-ship (first boot "
         "shipped "
      << checkpoints_before << ")";
}

// ---------------------------------------------------------------------------
// Fault injection (docs/fault-injection.md, repl.* rows)
// ---------------------------------------------------------------------------

TEST_F(ReplTest, ShipFaultFailsSyncThenRetrySucceeds) {
  StartPrimary();
  ASSERT_TRUE(primary_->Apply(Op("budget:0:160")).applied);
  ASSERT_TRUE(fault::ArmFromSpec("repl.ship=unavailable:count=1").ok());
  StartFollower();  // first sync dies with kReplError; reconnect succeeds
  ASSERT_TRUE(follower_->WaitForApplied(1, kWaitMs));
  EXPECT_GE(source_->stats().sync_errors, 1u);
  EXPECT_EQ(StateOf(*follower_->service()), StateOf(*primary_));
}

TEST_F(ReplTest, TailFaultForcesResyncWithoutLoss) {
  StartPrimary();
  StartFollower();
  ASSERT_TRUE(follower_->WaitForApplied(0, kWaitMs));
  ASSERT_TRUE(fault::ArmFromSpec("repl.tail=unavailable:count=1").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(primary_->Apply(Op("budget:0:" + std::to_string(120 + i)))
                    .applied);
  }
  ASSERT_TRUE(follower_->WaitForApplied(4, kWaitMs));
  EXPECT_EQ(StateOf(*follower_->service()), StateOf(*primary_));
  // The poisoned row tore the session; the follower reconnected.
  EXPECT_GE(follower_->stats().reconnects, 1u);
}

TEST_F(ReplTest, PromoteFaultAbortsThenSucceeds) {
  StartPrimary();
  StartFollower();
  ASSERT_TRUE(follower_->WaitForApplied(0, kWaitMs));
  source_->Stop();
  server_->Stop();
  primary_.reset();
  follower_->Stop();

  ASSERT_TRUE(fault::ArmFromSpec("repl.promote=unavailable:count=1").ok());
  const Status aborted = follower_->PromoteNow();
  EXPECT_FALSE(aborted.ok());
  EXPECT_FALSE(follower_->promoted());
  EXPECT_TRUE(role_.follower.load());

  ASSERT_TRUE(follower_->PromoteNow().ok());
  EXPECT_TRUE(follower_->promoted());
  EXPECT_FALSE(role_.follower.load());
}

}  // namespace
}  // namespace repl
}  // namespace gepc
