// Planning-service checkpoint surface: the on-demand Checkpoint() call,
// the --checkpoint-every auto-trigger in the apply loop, recovery that
// prefers checkpoint + journal-tail over full replay, compaction keeping
// the journal bounded by ops-since-checkpoint, and injected faults on
// every checkpoint/rotation stage leaving the service and journal intact.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "ckpt/checkpoint.h"
#include "common/logging.h"
#include "fault/fault.h"
#include "service/journal.h"
#include "service/planning_service.h"
#include "tests/paper_example.h"

namespace gepc {
namespace {

namespace fs = std::filesystem;
using testing_support::MakePaperInstance;
using testing_support::MakePaperPlan;

class CkptServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Registry::Global().Reset();
    // Checkpoint fallbacks log deliberate warnings; keep test output clean.
    previous_level_ = GetLogLevel();
    SetLogLevel(LogLevel::kError);
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = ::testing::TempDir() + "/ckpt_service_" + info->name();
    std::error_code ec;
    fs::remove_all(root_, ec);
    fs::create_directories(root_, ec);
    ASSERT_FALSE(ec) << ec.message();
    journal_path_ = root_ + "/service.gops";
    ckpt_dir_ = root_ + "/ckpt";
  }
  void TearDown() override {
    fault::Registry::Global().Reset();
    SetLogLevel(previous_level_);
  }

  ServiceOptions Options(int every, int retain = 2) const {
    ServiceOptions options;
    options.journal_path = journal_path_;
    options.checkpoint_dir = ckpt_dir_;
    options.checkpoint_every = every;
    options.checkpoint_retain = retain;
    return options;
  }

  Result<std::unique_ptr<PlanningService>> Make(const ServiceOptions& opts) {
    return PlanningService::Create(MakePaperInstance(), MakePaperPlan(), opts);
  }

  void ApplyOps(PlanningService* service, int count, double base = 15.0) {
    for (int i = 0; i < count; ++i) {
      const ApplyOutcome outcome = service->Apply(
          AtomicOp::BudgetChange(i % 5, base + static_cast<double>(i)));
      ASSERT_TRUE(outcome.applied) << i << ": " << outcome.error;
    }
  }

  LogLevel previous_level_ = LogLevel::kInfo;
  std::string root_, journal_path_, ckpt_dir_;
};

TEST_F(CkptServiceTest, OnDemandCheckpointPublishesAndCompacts) {
  auto service = Make(Options(/*every=*/0, /*retain=*/1));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ApplyOps(service->get(), 4);

  const CheckpointOutcome outcome = (*service)->Checkpoint();
  ASSERT_TRUE(outcome.published) << outcome.error;
  EXPECT_EQ(outcome.version, 4u);
  EXPECT_GT(outcome.bytes, 0);
  EXPECT_TRUE(outcome.compacted);
  EXPECT_TRUE(fs::exists(outcome.path));

  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.checkpoints_published, 1u);
  EXPECT_EQ(stats.checkpoint_failures, 0u);
  EXPECT_EQ(stats.last_checkpoint_version, 4u);
  EXPECT_EQ(stats.last_checkpoint_bytes, outcome.bytes);
  EXPECT_GE(stats.last_checkpoint_age_seconds, 0.0);
  // retain=1: everything before the checkpoint was absorbed, so the
  // rotated journal starts at base 4 with zero rows.
  EXPECT_EQ(stats.journal_compactions, 1u);
  EXPECT_EQ(stats.journal_base_sequence, 4u);
  (*service)->Shutdown();

  auto scan = ScanJournalFile(journal_path_);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->base_sequence, 4u);
  EXPECT_TRUE(scan->ops.empty());
  EXPECT_EQ(scan->torn_bytes, 0);
}

TEST_F(CkptServiceTest, AutoCheckpointFiresEveryN) {
  auto service = Make(Options(/*every=*/3, /*retain=*/2));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ApplyOps(service->get(), 7);

  const ServiceStats stats = (*service)->Stats();
  // Ops 3 and 6 crossed the threshold; op 7 is still in the open window.
  EXPECT_EQ(stats.checkpoints_published, 2u);
  EXPECT_EQ(stats.last_checkpoint_version, 6u);
  (*service)->Shutdown();

  auto list = ListCheckpoints(ckpt_dir_);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->size(), 2u);
  EXPECT_EQ((*list)[0].version, 6u);
  EXPECT_EQ((*list)[1].version, 3u);

  // Compaction goes through the OLDEST retained checkpoint, so the journal
  // tail still bridges every survivor: base 3, rows for ops 4..7.
  auto scan = ScanJournalFile(journal_path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->base_sequence, 3u);
  EXPECT_EQ(scan->ops.size(), 4u);
}

TEST_F(CkptServiceTest, RecoverPrefersCheckpointPlusTail) {
  uint64_t live_version = 0;
  {
    auto service = Make(Options(/*every=*/4));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ApplyOps(service->get(), 10);
    live_version = (*service)->snapshot()->version;
    (*service)->Shutdown();
  }

  auto recovered =
      PlanningService::Recover(MakePaperInstance(), MakePaperPlan(),
                               Options(/*every=*/4));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const ServiceStats stats = (*recovered)->Stats();
  EXPECT_TRUE(stats.recovered_from_checkpoint);
  EXPECT_EQ(stats.recovery_checkpoint_version, 8u);
  // Only the tail past version 8 was replayed, not the full history.
  EXPECT_EQ(stats.recovery_ops_replayed, 2u);
  EXPECT_GE(stats.recovery_ms, 0.0);
  EXPECT_EQ((*recovered)->snapshot()->version, live_version);
  // The boot checkpoint is the newest one until the next publication: its
  // version, file size and age, not "never".
  auto list = ListCheckpoints(ckpt_dir_);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->front().version, 8u);
  EXPECT_EQ(stats.last_checkpoint_version, 8u);
  EXPECT_EQ(stats.last_checkpoint_bytes,
            static_cast<int64_t>(fs::file_size(list->front().path)));
  EXPECT_GE(stats.last_checkpoint_age_seconds, 0.0);

  // The recovered service keeps sequencing where the crash left off.
  const ApplyOutcome next =
      (*recovered)->Apply(AtomicOp::BudgetChange(0, 99.0));
  EXPECT_TRUE(next.applied) << next.error;
  EXPECT_EQ(next.sequence, live_version + 1);
  (*recovered)->Shutdown();
}

TEST_F(CkptServiceTest, RecoverFallsBackToOlderCheckpointWhenNewestIsTorn) {
  {
    auto service = Make(Options(/*every=*/3));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ApplyOps(service->get(), 7);
    (*service)->Shutdown();
  }
  // Tear the newest checkpoint (version 6) down to a useless stub.
  auto list = ListCheckpoints(ckpt_dir_);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list->front().version, 6u);
  fs::resize_file(list->front().path, 32);

  auto recovered = PlanningService::Recover(
      MakePaperInstance(), MakePaperPlan(), Options(/*every=*/0));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const ServiceStats stats = (*recovered)->Stats();
  EXPECT_TRUE(stats.recovered_from_checkpoint);
  EXPECT_EQ(stats.recovery_checkpoint_version, 3u);
  // Zero committed-op loss: the journal tail bridges 4..7.
  EXPECT_EQ((*recovered)->snapshot()->version, 7u);
  (*recovered)->Shutdown();
}

TEST_F(CkptServiceTest, CheckpointWriteFaultLeavesServiceAndJournalIntact) {
  for (const char* point : {"ckpt.write", "ckpt.fsync", "ckpt.rename"}) {
    SCOPED_TRACE(point);
    fault::Registry::Global().Reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
    fs::create_directories(root_, ec);

    auto service = Make(Options(/*every=*/0));
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ApplyOps(service->get(), 3);

    ASSERT_TRUE(
        fault::ArmFromSpec(std::string(point) + "=unavailable:count=1").ok());
    const CheckpointOutcome failed = (*service)->Checkpoint();
    EXPECT_FALSE(failed.published);
    EXPECT_FALSE(failed.error.empty());
    EXPECT_EQ((*service)->Stats().checkpoint_failures, 1u);
    // No checkpoint landed, no temp debris, journal untouched.
    auto list = ListCheckpoints(ckpt_dir_);
    ASSERT_TRUE(list.ok());
    EXPECT_TRUE(list->empty());
    EXPECT_EQ((*service)->Stats().journal_compactions, 0u);

    // The service shrugs it off: the next attempt publishes.
    const CheckpointOutcome retried = (*service)->Checkpoint();
    EXPECT_TRUE(retried.published) << retried.error;
    EXPECT_EQ(retried.version, 3u);
    (*service)->Shutdown();

    auto scan = ScanJournalFile(journal_path_);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan->torn_bytes, 0);
  }
}

TEST_F(CkptServiceTest, RotateFaultKeepsOldJournalAndCheckpoint) {
  auto service = Make(Options(/*every=*/0));
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ApplyOps(service->get(), 3);

  // The checkpoint publishes, but the journal rotation behind it fails;
  // that must degrade to "no compaction yet", never a damaged journal.
  ASSERT_TRUE(fault::ArmFromSpec("journal.rotate=unavailable:count=1").ok());
  const CheckpointOutcome outcome = (*service)->Checkpoint();
  EXPECT_TRUE(outcome.published) << outcome.error;
  EXPECT_FALSE(outcome.compacted);
  EXPECT_EQ((*service)->Stats().journal_compactions, 0u);

  // The journal still starts at genesis with all three rows committed,
  // and the service continues accepting ops.
  const ApplyOutcome after = (*service)->Apply(AtomicOp::BudgetChange(1, 55.0));
  EXPECT_TRUE(after.applied) << after.error;
  (*service)->Shutdown();

  auto scan = ScanJournalFile(journal_path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->base_sequence, 0u);
  EXPECT_EQ(scan->ops.size(), 4u);
  EXPECT_EQ(scan->torn_bytes, 0);
}

}  // namespace
}  // namespace gepc
