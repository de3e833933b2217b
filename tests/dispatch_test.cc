// Tests for the shared JSONL command-dispatch layer (src/service/dispatch.h)
// that both gepc_serve front ends (stdio and socket) execute requests
// through: command classification/routing hints, the command handlers
// against a real PlanningService, protocol-error responses and request-id
// echoing.

#include "service/dispatch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/jsonl.h"
#include "tests/paper_example.h"

namespace gepc {
namespace {

using testing_support::MakePaperInstance;
using testing_support::MakePaperPlan;

class DispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto service =
        PlanningService::Create(MakePaperInstance(), MakePaperPlan());
    ASSERT_TRUE(service.ok()) << service.status();
    service_ = *std::move(service);
    dispatcher_ =
        std::make_unique<CommandDispatcher>(service_.get(), DispatchDefaults{});
  }

  /// Dispatches and parses the response (all responses are flat unless they
  /// embed arrays; those are asserted by substring instead).
  JsonObject Roundtrip(const std::string& line, bool* shutdown = nullptr) {
    const DispatchOutcome outcome = dispatcher_->Dispatch(line);
    if (shutdown != nullptr) *shutdown = outcome.shutdown;
    auto parsed = ParseJsonObject(outcome.response);
    EXPECT_TRUE(parsed.ok()) << outcome.response;
    return parsed.ok() ? *parsed : JsonObject{};
  }

  std::unique_ptr<PlanningService> service_;
  std::unique_ptr<CommandDispatcher> dispatcher_;
};

TEST(ClassifyCommandTest, SplitsReadsFromWrites) {
  EXPECT_EQ(ClassifyCommand("query_user"), CommandKind::kRead);
  EXPECT_EQ(ClassifyCommand("query_event"), CommandKind::kRead);
  EXPECT_EQ(ClassifyCommand("stats"), CommandKind::kRead);
  EXPECT_EQ(ClassifyCommand("metrics"), CommandKind::kRead);
  EXPECT_EQ(ClassifyCommand("faults"), CommandKind::kRead);
  // What-if scheduling never touches replicated state: follower-safe read.
  EXPECT_EQ(ClassifyCommand("schedule"), CommandKind::kRead);
  EXPECT_EQ(ClassifyCommand("apply"), CommandKind::kWrite);
  EXPECT_EQ(ClassifyCommand("rebuild"), CommandKind::kWrite);
  EXPECT_EQ(ClassifyCommand("checkpoint"), CommandKind::kWrite);
  EXPECT_EQ(ClassifyCommand("rebalance"), CommandKind::kWrite);
  EXPECT_EQ(ClassifyCommand("save_plan"), CommandKind::kWrite);
  EXPECT_EQ(ClassifyCommand("drain"), CommandKind::kWrite);
  EXPECT_EQ(ClassifyCommand("shutdown"), CommandKind::kWrite);
  EXPECT_EQ(ClassifyCommand("bogus"), CommandKind::kUnknown);
  EXPECT_EQ(ClassifyCommand(""), CommandKind::kUnknown);
}

TEST(ExtractCmdHintTest, FindsTheCommandWithoutFullParsing) {
  EXPECT_EQ(ExtractCmdHint(R"({"cmd":"stats"})"), "stats");
  EXPECT_EQ(ExtractCmdHint(R"({"id":7,"cmd":"apply","op":"eta:1:2"})"),
            "apply");
  EXPECT_EQ(ExtractCmdHint(R"({"cmd" :  "query_user","user":3})"),
            "query_user");
  EXPECT_EQ(ExtractCmdHint(R"({"user":3})"), "");
  EXPECT_EQ(ExtractCmdHint("not json at all"), "");
  EXPECT_EQ(ExtractCmdHint(R"({"cmd":12})"), "");
}

TEST_F(DispatchTest, AppliesOpsAndQueries) {
  const JsonObject applied =
      Roundtrip(R"({"cmd":"apply","op":"budget:0:75.5"})");
  EXPECT_TRUE(applied.at("ok").bool_value);
  EXPECT_TRUE(applied.at("applied").bool_value);
  EXPECT_EQ(applied.at("seq").number_value, 1.0);

  const DispatchOutcome user = dispatcher_->Dispatch(
      R"({"cmd":"query_user","user":0})");
  EXPECT_NE(user.response.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(user.response.find("\"stops\":["), std::string::npos);

  const DispatchOutcome event =
      dispatcher_->Dispatch(R"({"cmd":"query_event","event":0})");
  EXPECT_NE(event.response.find("\"attendees\":["), std::string::npos);
}

TEST_F(DispatchTest, StatsReportInstanceSizeAndOpCounts) {
  Roundtrip(R"({"cmd":"apply","op":"budget:0:60"})");
  const JsonObject stats = Roundtrip(R"({"cmd":"stats"})");
  EXPECT_TRUE(stats.at("ok").bool_value);
  EXPECT_EQ(stats.at("users").number_value,
            MakePaperInstance().num_users());
  EXPECT_EQ(stats.at("events").number_value,
            MakePaperInstance().num_events());
  EXPECT_GE(stats.at("ops_applied").number_value, 1.0);
}

TEST_F(DispatchTest, ScheduleDraftsOverTheLiveSnapshot) {
  const DispatchOutcome outcome = dispatcher_->Dispatch(
      R"({"cmd":"schedule","drafts":2,"candidates":2,"seed":5})");
  EXPECT_NE(outcome.response.find("\"ok\":true"), std::string::npos)
      << outcome.response;
  EXPECT_NE(outcome.response.find("\"chosen\":["), std::string::npos);
  EXPECT_NE(outcome.response.find("\"oracle_calls\":"), std::string::npos);

  // Same request, same answer: the search is deterministic per seed.
  const DispatchOutcome again = dispatcher_->Dispatch(
      R"({"cmd":"schedule","drafts":2,"candidates":2,"seed":5})");
  EXPECT_EQ(outcome.response, again.response);

  // The snapshot was only read — the service still answers and its version
  // did not move.
  const JsonObject stats = Roundtrip(R"({"cmd":"stats"})");
  EXPECT_TRUE(stats.at("ok").bool_value);
  EXPECT_EQ(stats.at("ops_applied").number_value, 0.0);
}

TEST_F(DispatchTest, ScheduleWithAffinityReportsAffinityUtility) {
  // The chosen array embeds objects, which the flat test parser does not
  // handle — substring assertions, per the fixture note.
  const DispatchOutcome outcome = dispatcher_->Dispatch(
      R"({"cmd":"schedule","drafts":2,"candidates":2,"seed":5,"lambda":0.5})");
  EXPECT_NE(outcome.response.find("\"ok\":true"), std::string::npos)
      << outcome.response;
  EXPECT_NE(outcome.response.find("\"affinity_utility\":"),
            std::string::npos);
  EXPECT_NE(outcome.response.find("\"score\":"), std::string::npos);
}

TEST_F(DispatchTest, ScheduleBoundsItsInputs) {
  EXPECT_FALSE(Roundtrip(R"({"cmd":"schedule","drafts":9})")
                   .at("ok").bool_value);
  EXPECT_FALSE(Roundtrip(R"({"cmd":"schedule","drafts":0})")
                   .at("ok").bool_value);
  EXPECT_FALSE(Roundtrip(R"({"cmd":"schedule","candidates":64})")
                   .at("ok").bool_value);
  EXPECT_FALSE(Roundtrip(R"({"cmd":"schedule","lambda":-1})")
                   .at("ok").bool_value);
  EXPECT_FALSE(Roundtrip(R"({"cmd":"schedule","seed":"abc"})")
                   .at("ok").bool_value);
  // Numbers are checked finite, integral and in range before any cast.
  for (const char* field :
       {R"("drafts":2.5)", R"("drafts":4294967297)", R"("candidates":-0.5)",
        R"("seed":-1)", R"("seed":1.5)", R"("seed":9007199254740994)",
        R"("seed":1e300)", R"("lambda":1e999)", R"("lambda":inf)"}) {
    EXPECT_FALSE(Roundtrip(std::string(R"({"cmd":"schedule",)") + field + "}")
                     .at("ok")
                     .bool_value)
        << field;
  }
}

TEST_F(DispatchTest, RebalanceWithoutTrackerIsAnErrorResponse) {
  // The fixture's service has no tracker (rebalance_shards = 0): the
  // command must answer with a clean error, not a crash, and the service
  // must stay healthy.
  const JsonObject response = Roundtrip(R"({"cmd":"rebalance"})");
  EXPECT_FALSE(response.at("ok").bool_value);
  EXPECT_TRUE(Roundtrip(R"({"cmd":"stats"})").at("ok").bool_value);
}

TEST(DispatchRebalanceTest, RebalanceReportsTheRunAndStatsExposeTheShards) {
  ServiceOptions options;
  options.rebalance_shards = 2;
  auto service = PlanningService::Create(MakePaperInstance(), MakePaperPlan(),
                                         options);
  ASSERT_TRUE(service.ok()) << service.status();
  CommandDispatcher dispatcher(service->get(), DispatchDefaults{});

  const DispatchOutcome applied = dispatcher.Dispatch(
      R"({"cmd":"apply","op":"budget:0:75.5"})");
  EXPECT_NE(applied.response.find("\"applied\":true"), std::string::npos)
      << applied.response;

  const DispatchOutcome rebalanced =
      dispatcher.Dispatch(R"({"cmd":"rebalance"})");
  auto parsed = ParseJsonObject(rebalanced.response);
  ASSERT_TRUE(parsed.ok()) << rebalanced.response;
  EXPECT_TRUE(parsed->at("ok").bool_value) << rebalanced.response;
  EXPECT_TRUE(parsed->at("rebalanced").bool_value);
  EXPECT_EQ(parsed->at("seq").number_value, 1.0);
  EXPECT_GE(parsed->at("skew_after").number_value, 0.0);
  EXPECT_FALSE(rebalanced.shutdown);

  const DispatchOutcome stats = dispatcher.Dispatch(R"({"cmd":"stats"})");
  auto stats_parsed = ParseJsonObject(stats.response);
  ASSERT_TRUE(stats_parsed.ok()) << stats.response;
  EXPECT_EQ(stats_parsed->at("rebalance_shards").number_value, 2.0);
  EXPECT_EQ(stats_parsed->at("rebalances").number_value, 1.0);
}

TEST_F(DispatchTest, ErrorsAreResponsesNotCrashes) {
  EXPECT_FALSE(Roundtrip("this is not json").at("ok").bool_value);
  EXPECT_FALSE(Roundtrip(R"({"op":"eta:1:2"})").at("ok").bool_value);
  EXPECT_FALSE(Roundtrip(R"({"cmd":"frobnicate"})").at("ok").bool_value);
  EXPECT_FALSE(Roundtrip(R"({"cmd":"apply"})").at("ok").bool_value);
  EXPECT_FALSE(
      Roundtrip(R"({"cmd":"apply","op":"eta:banana"})").at("ok").bool_value);
  EXPECT_FALSE(
      Roundtrip(R"({"cmd":"query_user","user":999})").at("ok").bool_value);
  // Fractional, negative and out-of-int-range ids are rejected, never cast.
  for (const char* request :
       {R"({"cmd":"query_user","user":1.9})",
        R"({"cmd":"query_user","user":-0.5})",
        R"({"cmd":"query_user","user":4294967297})",
        R"({"cmd":"query_event","event":0.5})",
        R"({"cmd":"query_event","event":-4294967297})",
        R"({"cmd":"rebuild","threads":4294967297})",
        R"({"cmd":"rebuild","shards":1.5})"}) {
    EXPECT_FALSE(Roundtrip(request).at("ok").bool_value) << request;
  }
  // Non-finite numbers and ids that overflow an int are rejected before
  // the op reaches the queue, so nothing is applied or journaled.
  for (const char* op : {"mu:0:0:nan", "budget:0:inf", "loc:0:nan:1",
                         "eta:4294967296:1"}) {
    EXPECT_FALSE(Roundtrip(std::string(R"({"cmd":"apply","op":")") + op +
                           R"("})")
                     .at("ok")
                     .bool_value)
        << op;
  }
  EXPECT_EQ(service_->snapshot()->version, 0u);
  // The service is still healthy afterwards.
  EXPECT_TRUE(Roundtrip(R"({"cmd":"stats"})").at("ok").bool_value);
}

TEST_F(DispatchTest, EchoesRequestIdsFirst) {
  const DispatchOutcome numeric =
      dispatcher_->Dispatch(R"({"id":42,"cmd":"stats"})");
  EXPECT_EQ(numeric.response.rfind("{\"id\":42,", 0), 0u) << numeric.response;
  const DispatchOutcome text =
      dispatcher_->Dispatch(R"({"id":"abc","cmd":"stats"})");
  EXPECT_EQ(text.response.rfind("{\"id\":\"abc\",", 0), 0u) << text.response;
  // Echoed even on errors, so pipelined clients can correlate failures.
  const DispatchOutcome bad =
      dispatcher_->Dispatch(R"({"id":7,"cmd":"nope"})");
  EXPECT_EQ(bad.response.rfind("{\"id\":7,", 0), 0u) << bad.response;
}

TEST_F(DispatchTest, ShutdownSetsTheFlagAndAcks) {
  bool shutdown = false;
  const JsonObject ack = Roundtrip(R"({"cmd":"shutdown"})", &shutdown);
  EXPECT_TRUE(shutdown);
  EXPECT_TRUE(ack.at("ok").bool_value);
  EXPECT_TRUE(ack.at("shutdown").bool_value);
  // Reads and drain never set it.
  EXPECT_FALSE(dispatcher_->Dispatch(R"({"cmd":"stats"})").shutdown);
  EXPECT_FALSE(dispatcher_->Dispatch(R"({"cmd":"drain"})").shutdown);
}

TEST_F(DispatchTest, DispatchIsThreadSafe) {
  // Hammer the dispatcher from several threads; every response must be
  // well-formed and the service must stay consistent.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &bad] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string line =
            i % 2 == 0
                ? R"({"cmd":"apply","op":"mu:)" + std::to_string(t) + ":" +
                      std::to_string(i % 4) + R"(:50"})"
                : R"({"cmd":"query_user","user":)" + std::to_string(t) + "}";
        const DispatchOutcome outcome = dispatcher_->Dispatch(line);
        if (outcome.response.find("\"ok\":") == std::string::npos) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(bad.load(), 0);
  const JsonObject stats = Roundtrip(R"({"cmd":"stats"})");
  EXPECT_EQ(stats.at("ops_submitted").number_value, kThreads * kPerThread / 2);
}

}  // namespace
}  // namespace gepc
