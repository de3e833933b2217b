#include "iep/trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/feasibility.h"
#include "iep/batch.h"
#include "tests/paper_example.h"

namespace gepc {
namespace {

using testing_support::kE2;
using testing_support::kE4;
using testing_support::MakePaperInstance;
using testing_support::MakePaperPlan;

std::vector<AtomicOp> SampleOps() {
  Event fresh;
  fresh.location = {4, 4};
  fresh.lower_bound = 1;
  fresh.upper_bound = 3;
  fresh.time = {21 * 60, 22 * 60};
  fresh.fee = 2.5;
  return {
      AtomicOp::UpperBoundChange(kE4, 1),
      AtomicOp::LowerBoundChange(kE2, 3),
      AtomicOp::TimeChange(0, {100, 200}),
      AtomicOp::LocationChange(1, {7.5, -2.25}),
      AtomicOp::BudgetChange(2, 12.75),
      AtomicOp::UtilityChange(3, 1, 0.125),
      AtomicOp::NewEvent(fresh, {0.1, 0.2, 0.3, 0.4, 0.5}),
  };
}

TEST(TraceTest, RoundTripPreservesEveryField) {
  const std::vector<AtomicOp> ops = SampleOps();
  std::stringstream buffer;
  ASSERT_TRUE(SaveOps(ops, buffer).ok());
  auto loaded = LoadOps(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), ops.size());
  for (size_t k = 0; k < ops.size(); ++k) {
    EXPECT_EQ((*loaded)[k].kind, ops[k].kind) << "op " << k;
  }
  EXPECT_EQ((*loaded)[0].event, kE4);
  EXPECT_EQ((*loaded)[0].new_bound, 1);
  EXPECT_EQ((*loaded)[2].new_time, (Interval{100, 200}));
  EXPECT_EQ((*loaded)[3].new_location, (Point{7.5, -2.25}));
  EXPECT_DOUBLE_EQ((*loaded)[4].new_budget, 12.75);
  EXPECT_DOUBLE_EQ((*loaded)[5].new_utility, 0.125);
  EXPECT_DOUBLE_EQ((*loaded)[6].new_event.fee, 2.5);
  EXPECT_EQ((*loaded)[6].new_event_utilities,
            (std::vector<double>{0.1, 0.2, 0.3, 0.4, 0.5}));
}

TEST(TraceTest, ReplayedTraceMatchesDirectApplication) {
  const std::vector<AtomicOp> ops = SampleOps();
  std::stringstream buffer;
  ASSERT_TRUE(SaveOps(ops, buffer).ok());
  auto loaded = LoadOps(buffer);
  ASSERT_TRUE(loaded.ok());

  auto direct =
      IncrementalPlanner::Create(MakePaperInstance(), MakePaperPlan());
  auto replayed =
      IncrementalPlanner::Create(MakePaperInstance(), MakePaperPlan());
  ASSERT_TRUE(direct.ok() && replayed.ok());
  auto a = ApplyBatch(&*direct, ops);
  auto b = ApplyBatch(&*replayed, *loaded);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(direct->plan() == replayed->plan());
  EXPECT_EQ(a->negative_impact, b->negative_impact);
  EXPECT_DOUBLE_EQ(a->total_utility, b->total_utility);
}

TEST(TraceTest, CommentsAndBlanksIgnored) {
  std::stringstream in(
      "# trace\n"
      "GOPS1\n"
      "\n"
      "# shrink\n"
      "eta 3 1\n");
  auto loaded = LoadOps(in);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 1u);
  EXPECT_EQ((*loaded)[0].kind, AtomicOp::Kind::kUpperBoundChanged);
}

TEST(TraceTest, MissingHeaderRejected) {
  std::stringstream in("eta 3 1\n");
  auto loaded = LoadOps(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceTest, MalformedRowRejectedWithLine) {
  std::stringstream in(
      "GOPS1\n"
      "time 3 100\n");  // missing end
  auto loaded = LoadOps(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 2"), std::string::npos);
}

TEST(TraceTest, UnknownKindRejected) {
  std::stringstream in(
      "GOPS1\n"
      "frobnicate 1 2\n");
  auto loaded = LoadOps(in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("unknown op kind"),
            std::string::npos);
}

TEST(TraceTest, EmptyTraceIsValid) {
  std::stringstream in("GOPS1\n");
  auto loaded = LoadOps(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->empty());
}

TEST(TraceTest, EveryOpKindRoundTripsByteIdentically) {
  // Awkward doubles on purpose: values that lose digits under default
  // stream precision. write -> parse -> write must reproduce the exact
  // bytes, which is what makes the service journal's replay exact.
  Event fresh;
  fresh.location = {1.0 / 3.0, -0.1};
  fresh.lower_bound = 0;
  fresh.upper_bound = 7;
  fresh.time = {539, 1261};
  fresh.fee = 12.880807237860413;
  const std::vector<AtomicOp> ops = {
      AtomicOp::UpperBoundChange(3, 10),
      AtomicOp::LowerBoundChange(0, 2),
      AtomicOp::TimeChange(2, {61, 179}),
      AtomicOp::LocationChange(4, {0.1 + 0.2, 1e-9}),
      AtomicOp::BudgetChange(5, 100.0 / 7.0),
      AtomicOp::UtilityChange(6, 1, 2.0 / 3.0),
      AtomicOp::NewEvent(fresh, {0.1, 1.0 / 7.0, 0.30000000000000004}),
  };

  std::stringstream first;
  ASSERT_TRUE(SaveOps(ops, first).ok());
  auto loaded = LoadOps(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::stringstream second;
  ASSERT_TRUE(SaveOps(*loaded, second).ok());
  EXPECT_EQ(first.str(), second.str());

  // And per-row SaveOp agrees with the batch writer (header aside).
  std::stringstream rows;
  for (const AtomicOp& op : ops) ASSERT_TRUE(SaveOp(op, rows).ok());
  EXPECT_EQ(std::string("GOPS1\n") + rows.str(), first.str());
}

TEST(TraceTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/gepc_trace_test.gops";
  ASSERT_TRUE(SaveOpsToFile(SampleOps(), path).ok());
  auto loaded = LoadOpsFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), SampleOps().size());
  EXPECT_EQ(LoadOpsFromFile("/no/such/file").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace gepc
