// Satellite of the fault-injection PR: drive the planning service through
// injected journal and queue failures and verify the recovery contract —
// transient faults are retried with backoff and surfaced via the
// journal_retries counter, permanent faults reject the op without ever
// corrupting the journal tail, and queue faults surface as backpressure.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "fault/fault.h"
#include "service/journal.h"
#include "service/planning_service.h"
#include "tests/paper_example.h"

namespace gepc {
namespace {

using testing_support::MakePaperInstance;
using testing_support::MakePaperPlan;

std::string Tmp(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

class ServiceFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Registry::Global().Reset(); }
  void TearDown() override { fault::Registry::Global().Reset(); }

  // A journaled service; its retries sleep the production backoff (ms).
  Result<std::unique_ptr<PlanningService>> MakeService(
      const std::string& journal_name) {
    journal_path_ = Tmp(journal_name);
    std::remove(journal_path_.c_str());
    ServiceOptions options;
    options.journal_path = journal_path_;
    return PlanningService::Create(MakePaperInstance(), MakePaperPlan(),
                                   options);
  }

  void ExpectCleanJournal(size_t ops) {
    auto scan = ScanJournalFile(journal_path_);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_EQ(scan->ops.size(), ops);
    EXPECT_EQ(scan->torn_bytes, 0);
  }

  std::string journal_path_;
};

TEST_F(ServiceFaultTest, TransientAppendFaultIsRetriedAndCounted) {
  auto service = MakeService("service_fault_transient.gops");
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(
      fault::ArmFromSpec("journal.append=unavailable:count=2").ok());

  const ApplyOutcome outcome =
      (*service)->Apply(AtomicOp::BudgetChange(0, 21.0));
  EXPECT_TRUE(outcome.applied) << outcome.error;
  EXPECT_EQ(outcome.sequence, 1u);
  EXPECT_EQ((*service)->Stats().journal_retries, 2u);

  fault::Registry::Global().Reset();
  (*service)->Shutdown();
  // Exactly one committed row: the failed attempts left no trace.
  ExpectCleanJournal(1);
}

TEST_F(ServiceFaultTest, PermanentFaultRejectsWithoutCorruptingTail) {
  auto service = MakeService("service_fault_permanent.gops");
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // One good op first, so there is a committed tail worth corrupting.
  ASSERT_TRUE((*service)->Apply(AtomicOp::BudgetChange(0, 21.0)).applied);

  ASSERT_TRUE(fault::ArmFromSpec("journal.append=unavailable").ok());
  const ApplyOutcome rejected =
      (*service)->Apply(AtomicOp::BudgetChange(1, 22.0));
  EXPECT_FALSE(rejected.applied);
  EXPECT_EQ(rejected.sequence, 0u);
  EXPECT_NE(rejected.error.find("journal"), std::string::npos);
  // Initial attempt + full retry budget, all failed.
  EXPECT_EQ((*service)->Stats().journal_retries, 3u);
  EXPECT_EQ((*service)->Stats().ops_rejected, 1u);

  // Clear the fault: the service keeps going as if nothing happened.
  fault::Registry::Global().Reset();
  const ApplyOutcome after =
      (*service)->Apply(AtomicOp::BudgetChange(1, 22.0));
  EXPECT_TRUE(after.applied) << after.error;
  EXPECT_EQ(after.sequence, 2u);
  (*service)->Shutdown();

  ExpectCleanJournal(2);
  // Replay agrees: the rejected op never became durable.
  auto replay =
      ReplayJournal(MakePaperInstance(), MakePaperPlan(), journal_path_);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->ops_applied, 2u);
  EXPECT_EQ(replay->ops_rejected, 0u);
}

TEST_F(ServiceFaultTest, NonTransientFaultIsNotRetried) {
  auto service = MakeService("service_fault_internal.gops");
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(fault::ArmFromSpec("journal.append=internal:count=1").ok());

  const ApplyOutcome outcome =
      (*service)->Apply(AtomicOp::BudgetChange(0, 21.0));
  EXPECT_FALSE(outcome.applied);
  EXPECT_EQ((*service)->Stats().journal_retries, 0u);

  const ApplyOutcome after =
      (*service)->Apply(AtomicOp::BudgetChange(0, 21.0));
  EXPECT_TRUE(after.applied) << after.error;
  (*service)->Shutdown();
  ExpectCleanJournal(1);
}

TEST_F(ServiceFaultTest, TornAppendRestoresTailAndRetrySucceeds) {
  auto service = MakeService("service_fault_torn.gops");
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE((*service)->Apply(AtomicOp::BudgetChange(0, 21.0)).applied);

  // First append of the next op writes only a prefix of the row (a simulated
  // crash mid-write), restores the tail, and reports kUnavailable; the
  // service's retry then lands the full row.
  ASSERT_TRUE(
      fault::ArmFromSpec("journal.torn_tail=unavailable:count=1:arg=4").ok());
  const ApplyOutcome outcome =
      (*service)->Apply(AtomicOp::UpperBoundChange(1, 3));
  EXPECT_TRUE(outcome.applied) << outcome.error;
  EXPECT_EQ(outcome.sequence, 2u);
  EXPECT_EQ((*service)->Stats().journal_retries, 1u);
  (*service)->Shutdown();
  ExpectCleanJournal(2);
}

TEST_F(ServiceFaultTest, FlushFaultIsRetriedLikeAppend) {
  auto service = MakeService("service_fault_flush.gops");
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(fault::ArmFromSpec("journal.flush=unavailable:count=1").ok());

  const ApplyOutcome outcome =
      (*service)->Apply(AtomicOp::BudgetChange(0, 21.0));
  EXPECT_TRUE(outcome.applied) << outcome.error;
  EXPECT_EQ((*service)->Stats().journal_retries, 1u);
  (*service)->Shutdown();
  ExpectCleanJournal(1);
}

TEST_F(ServiceFaultTest, QueueFaultSurfacesAsBackpressure) {
  auto service =
      PlanningService::Create(MakePaperInstance(), MakePaperPlan());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(fault::ArmFromSpec("queue.push=unavailable:count=1").ok());

  auto refused = (*service)->TrySubmit(AtomicOp::BudgetChange(0, 21.0));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ((*service)->Stats().ops_dropped, 1u);

  auto accepted = (*service)->TrySubmit(AtomicOp::BudgetChange(0, 21.0));
  ASSERT_TRUE(accepted.ok());
  EXPECT_TRUE(accepted->get().applied);
}

TEST_F(ServiceFaultTest, RecoverAfterFaultyRunMatchesLiveState) {
  auto service = MakeService("service_fault_recover.gops");
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // A run peppered with transient faults: every op still lands.
  ASSERT_TRUE(
      fault::ArmFromSpec("journal.append=unavailable:prob=0.4:seed=11").ok());
  for (int i = 0; i < 8; ++i) {
    const ApplyOutcome outcome = (*service)->Apply(
        AtomicOp::BudgetChange(i % 5, 15.0 + static_cast<double>(i)));
    EXPECT_TRUE(outcome.applied) << i << ": " << outcome.error;
  }
  fault::Registry::Global().Reset();
  const auto live = (*service)->snapshot();
  (*service)->Shutdown();

  ServiceOptions options;
  options.journal_path = journal_path_;
  auto recovered =
      PlanningService::Recover(MakePaperInstance(), MakePaperPlan(), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const auto snap = (*recovered)->snapshot();
  EXPECT_EQ(snap->version, live->version);
  EXPECT_DOUBLE_EQ(snap->instance->user(3).budget,
                   live->instance->user(3).budget);
  (*recovered)->Shutdown();
}

}  // namespace
}  // namespace gepc
