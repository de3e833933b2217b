// End-to-end tests of the gepc_serve binary (path injected by CMake as
// GEPC_SERVE_PATH). Each test writes a request script, pipes it through a
// full server session over stdin/stdout, and inspects the JSONL responses.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "data/generator.h"
#include "data/io.h"
#include "service/journal.h"
#include "tests/temp_path.h"

namespace gepc {
namespace {

using testing_support::TestTempPath;

std::string Serve() { return GEPC_SERVE_PATH; }

void WriteLines(const std::string& path,
                const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines) out << line << "\n";
}

struct RunResult {
  int exit_code = -1;
  std::vector<std::string> lines;  // stdout, one response per line
};

RunResult RunSession(const std::string& flags,
                     const std::vector<std::string>& requests) {
  const std::string requests_path = TestTempPath("serve_requests.jsonl");
  const std::string output_path = TestTempPath("serve_responses.jsonl");
  WriteLines(requests_path, requests);
  const std::string command = Serve() + " " + flags + " < " + requests_path +
                              " > " + output_path + " 2> /dev/null";
  RunResult result;
  result.exit_code = WEXITSTATUS(std::system(command.c_str()));
  std::ifstream in(output_path);
  std::string line;
  while (std::getline(in, line)) result.lines.push_back(line);
  return result;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_users = 30;
    config.num_events = 8;
    config.mean_xi = 1;
    config.mean_eta = 6;
    config.seed = 11;
    auto instance = GenerateInstance(config);
    ASSERT_TRUE(instance.ok()) << instance.status();
    instance_path_ = TestTempPath("serve_test.gepc");
    ASSERT_TRUE(SaveInstanceToFile(*instance, instance_path_).ok());
  }

  std::string instance_path_;
};

TEST_F(ServeTest, SessionAppliesQueriesAndShutsDown) {
  const RunResult result = RunSession(
      "--in " + instance_path_,
      {R"({"cmd":"apply","op":"budget:0:75.5"})",
       R"({"cmd":"query_user","user":0})",
       R"({"cmd":"query_event","event":0})",
       R"({"cmd":"stats"})",
       R"({"cmd":"shutdown"})"});
  EXPECT_EQ(result.exit_code, 0);
  // ready + 4 responses + shutdown acknowledgement.
  ASSERT_EQ(result.lines.size(), 6u);
  EXPECT_NE(result.lines[0].find("\"ready\":true"), std::string::npos);
  EXPECT_NE(result.lines[1].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(result.lines[1].find("\"applied\":true"), std::string::npos);
  EXPECT_NE(result.lines[1].find("\"seq\":1"), std::string::npos);
  EXPECT_NE(result.lines[2].find("\"user\":0"), std::string::npos);
  EXPECT_NE(result.lines[3].find("\"attendance\":"), std::string::npos);
  EXPECT_NE(result.lines[4].find("\"ops_applied\":1"), std::string::npos);
  EXPECT_NE(result.lines[5].find("\"shutdown\":true"), std::string::npos);
}

TEST_F(ServeTest, ErrorsKeepTheSessionAlive) {
  const RunResult result = RunSession(
      "--in " + instance_path_,
      {"this is not json",
       R"({"cmd":"frobnicate"})",
       R"({"cmd":"apply","op":"bogus:1:2"})",
       R"({"cmd":"apply"})",
       R"({"cmd":"query_user","user":999})",
       R"({"cmd":"apply","op":"eta:99:1"})",
       R"({"cmd":"stats"})"});
  EXPECT_EQ(result.exit_code, 0);  // EOF is a clean shutdown
  ASSERT_EQ(result.lines.size(), 9u);  // ready + 7 + shutdown line
  for (size_t i = 1; i <= 5; ++i) {
    EXPECT_NE(result.lines[i].find("\"ok\":false"), std::string::npos)
        << "line " << i << ": " << result.lines[i];
    EXPECT_NE(result.lines[i].find("\"error\":"), std::string::npos);
  }
  // An op on an unknown event id parses fine but the planner rejects it;
  // the request itself still succeeds.
  EXPECT_NE(result.lines[6].find("\"applied\":false"), std::string::npos);
  EXPECT_NE(result.lines[6].find("\"error\":"), std::string::npos);
  EXPECT_NE(result.lines[7].find("\"ops_rejected\":1"), std::string::npos);
}

TEST_F(ServeTest, JournalSurvivesRestartViaRecover) {
  const std::string journal_path = TestTempPath("serve_test_journal.gops");
  std::remove(journal_path.c_str());

  const RunResult first = RunSession(
      "--in " + instance_path_ + " --journal " + journal_path,
      {R"({"cmd":"apply","op":"budget:0:55.5"})",
       R"({"cmd":"apply","op":"budget:2:60"})",
       R"({"cmd":"stats"})",
       R"({"cmd":"shutdown"})"});
  EXPECT_EQ(first.exit_code, 0);
  ASSERT_GE(first.lines.size(), 4u);
  EXPECT_NE(first.lines[3].find("\"ops_applied\":2"), std::string::npos);

  // Without --recover a populated journal is refused (exit nonzero)...
  const RunResult refused = RunSession(
      "--in " + instance_path_ + " --journal " + journal_path,
      {R"({"cmd":"shutdown"})"});
  EXPECT_NE(refused.exit_code, 0);

  // ...with --recover the session resumes at sequence 3.
  const RunResult second = RunSession(
      "--in " + instance_path_ + " --journal " + journal_path + " --recover",
      {R"({"cmd":"apply","op":"budget:1:44.25"})",
       R"({"cmd":"shutdown"})"});
  EXPECT_EQ(second.exit_code, 0);
  ASSERT_GE(second.lines.size(), 2u);
  EXPECT_NE(second.lines[0].find("\"recovered_ops\":2"), std::string::npos);
  EXPECT_NE(second.lines[1].find("\"seq\":3"), std::string::npos);
}

TEST_F(ServeTest, SavePlanWritesLoadablePlan) {
  const std::string plan_path = TestTempPath("serve_test_saved.gpln");
  std::remove(plan_path.c_str());
  const RunResult result = RunSession(
      "--in " + instance_path_,
      {R"({"cmd":"apply","op":"eta:1:2"})",
       R"({"cmd":"save_plan","path":")" + plan_path + R"("})",
       R"({"cmd":"shutdown"})"});
  EXPECT_EQ(result.exit_code, 0);
  auto plan = LoadPlanFromFile(plan_path);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_LE(plan->attendance(1), 2);
}

TEST_F(ServeTest, AsyncApplyAndDrain) {
  const RunResult result = RunSession(
      "--in " + instance_path_,
      {R"({"cmd":"apply","op":"budget:2:70","wait":false})",
       R"({"cmd":"drain"})",
       R"({"cmd":"stats"})",
       R"({"cmd":"shutdown"})"});
  EXPECT_EQ(result.exit_code, 0);
  ASSERT_EQ(result.lines.size(), 5u);
  EXPECT_NE(result.lines[1].find("\"queued\":true"), std::string::npos);
  EXPECT_NE(result.lines[2].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(result.lines[3].find("\"ops_applied\":1"), std::string::npos);
}

TEST_F(ServeTest, RebuildSwapsInAFreshPlan) {
  const RunResult result = RunSession(
      "--in " + instance_path_ + " --shards 2 --threads 2",
      {R"({"cmd":"apply","op":"budget:0:75.5"})",
       R"({"cmd":"rebuild","shards":3,"threads":2})",
       R"({"cmd":"stats"})",
       R"({"cmd":"rebuild","shards":0})",
       R"({"cmd":"shutdown"})"});
  EXPECT_EQ(result.exit_code, 0);
  ASSERT_EQ(result.lines.size(), 6u);
  EXPECT_NE(result.lines[0].find("\"ready\":true"), std::string::npos);
  EXPECT_NE(result.lines[2].find("\"rebuilt\":true"), std::string::npos);
  EXPECT_NE(result.lines[2].find("\"shards\":3"), std::string::npos);
  EXPECT_NE(result.lines[2].find("\"utility\":"), std::string::npos);
  // apply + rebuild both count as applied work.
  EXPECT_NE(result.lines[3].find("\"ops_applied\":2"), std::string::npos);
  // Invalid override is a request error, not a session killer.
  EXPECT_NE(result.lines[4].find("\"ok\":false"), std::string::npos);
}

TEST_F(ServeTest, RebuildIsDeterministicAcrossSessions) {
  const std::string a = TestTempPath("serve_rebuild_a.gpln");
  const std::string b = TestTempPath("serve_rebuild_b.gpln");
  for (const std::string* path : {&a, &b}) {
    std::remove(path->c_str());
    const RunResult result = RunSession(
        "--in " + instance_path_,
        {R"({"cmd":"rebuild","shards":4,"threads":2})",
         R"({"cmd":"save_plan","path":")" + *path + R"("})",
         R"({"cmd":"shutdown"})"});
    EXPECT_EQ(result.exit_code, 0);
  }
  auto plan_a = LoadPlanFromFile(a);
  auto plan_b = LoadPlanFromFile(b);
  ASSERT_TRUE(plan_a.ok() && plan_b.ok());
  EXPECT_TRUE(*plan_a == *plan_b);
}

TEST_F(ServeTest, MetricsCommandReturnsPrometheusText) {
  const RunResult result = RunSession(
      "--in " + instance_path_,
      {R"({"cmd":"apply","op":"budget:0:75.5"})",
       R"({"cmd":"metrics"})",
       R"({"cmd":"shutdown"})"});
  EXPECT_EQ(result.exit_code, 0);
  ASSERT_EQ(result.lines.size(), 4u);
  const std::string& line = result.lines[2];
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(line.find("\"format\":\"prometheus\""), std::string::npos);
  // The payload carries both the global registry (solver phases) and the
  // per-service block; \n is JSON-escaped inside the line.
  EXPECT_NE(line.find("# TYPE gepc_solver_solves_total counter"),
            std::string::npos);
  EXPECT_NE(line.find("gepc_service_ops_submitted_total 1"),
            std::string::npos);
  EXPECT_NE(line.find("# TYPE gepc_service_apply_ms histogram"),
            std::string::npos);
}

TEST_F(ServeTest, StatsIncludesHistogramSummaries) {
  const RunResult result = RunSession(
      "--in " + instance_path_,
      {R"({"cmd":"apply","op":"budget:0:75.5"})",
       R"({"cmd":"stats"})",
       R"({"cmd":"shutdown"})"});
  EXPECT_EQ(result.exit_code, 0);
  ASSERT_EQ(result.lines.size(), 4u);
  const std::string& stats = result.lines[2];
  EXPECT_NE(stats.find("\"apply_ms_count\":1"), std::string::npos);
  EXPECT_NE(stats.find("\"apply_ms_exact\":true"), std::string::npos);
  EXPECT_NE(stats.find("\"queue_wait_ms_p99\":"), std::string::npos);
  EXPECT_NE(stats.find("\"queue_wait_ms_max\":"), std::string::npos);
}

TEST_F(ServeTest, MetricsFileWrittenAtShutdown) {
  const std::string metrics_path = TestTempPath("serve_test_metrics.prom");
  std::remove(metrics_path.c_str());
  const RunResult result = RunSession(
      "--in " + instance_path_ + " --metrics " + metrics_path,
      {R"({"cmd":"apply","op":"budget:0:75.5"})",
       R"({"cmd":"shutdown"})"});
  EXPECT_EQ(result.exit_code, 0);
  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good()) << "metrics file not written";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("gepc_service_ops_applied_total 1"),
            std::string::npos);
  EXPECT_NE(buffer.str().find("# TYPE gepc_service_apply_ms histogram"),
            std::string::npos);
}

TEST_F(ServeTest, TraceFileCapturesServiceSpans) {
  const std::string trace_path = TestTempPath("serve_test_trace.json");
  std::remove(trace_path.c_str());
  const RunResult result = RunSession(
      "--in " + instance_path_ + " --trace " + trace_path,
      {R"({"cmd":"apply","op":"budget:0:75.5"})",
       R"({"cmd":"shutdown"})"});
  EXPECT_EQ(result.exit_code, 0);
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << "trace file not written";
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(buffer.str().find("\"name\":\"service.apply\""),
            std::string::npos);
  EXPECT_NE(buffer.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(ServeTest, ObservabilityFlagsRequireValues) {
  // --metrics / --trace with a missing value are usage errors (exit 64).
  EXPECT_EQ(WEXITSTATUS(std::system(
                (Serve() + " --in " + instance_path_ +
                 " --metrics < /dev/null > /dev/null 2>&1")
                    .c_str())),
            64);
  EXPECT_EQ(WEXITSTATUS(std::system(
                (Serve() + " --in " + instance_path_ +
                 " --trace < /dev/null > /dev/null 2>&1")
                    .c_str())),
            64);
}

TEST_F(ServeTest, CheckpointCommandPublishesAndShowsInStats) {
  const std::string journal_path = TestTempPath("journal.gops");
  const std::string ckpt_dir = TestTempPath("ckpt");
  std::remove(journal_path.c_str());
  const RunResult result = RunSession(
      "--in " + instance_path_ + " --journal " + journal_path +
          " --checkpoint-dir " + ckpt_dir,
      {R"({"cmd":"apply","op":"budget:0:75.5"})",
       R"({"cmd":"apply","op":"budget:1:60"})",
       R"({"cmd":"checkpoint"})",
       R"({"cmd":"stats"})",
       R"({"cmd":"shutdown"})"});
  EXPECT_EQ(result.exit_code, 0);
  ASSERT_EQ(result.lines.size(), 6u);
  const std::string& ckpt = result.lines[3];
  EXPECT_NE(ckpt.find("\"ok\":true"), std::string::npos) << ckpt;
  EXPECT_NE(ckpt.find("\"checkpoint\":true"), std::string::npos);
  EXPECT_NE(ckpt.find("\"version\":2"), std::string::npos);
  EXPECT_NE(ckpt.find("\"compacted\":true"), std::string::npos);
  const std::string& stats = result.lines[4];
  EXPECT_NE(stats.find("\"checkpoints_published\":1"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"last_checkpoint_version\":2"), std::string::npos);
  EXPECT_NE(stats.find("\"checkpoint_failures\":0"), std::string::npos);
}

TEST_F(ServeTest, AutoCheckpointEveryNAndRecoverFromCheckpoint) {
  const std::string journal_path = TestTempPath("journal.gops");
  const std::string ckpt_dir = TestTempPath("ckpt");
  std::remove(journal_path.c_str());
  const std::string flags = "--in " + instance_path_ + " --journal " +
                            journal_path + " --checkpoint-dir " + ckpt_dir +
                            " --checkpoint-every 2";
  const RunResult first = RunSession(
      flags,
      {R"({"cmd":"apply","op":"budget:0:75.5"})",
       R"({"cmd":"apply","op":"budget:1:60"})",
       R"({"cmd":"apply","op":"budget:2:65"})",
       R"({"cmd":"stats"})",
       R"({"cmd":"shutdown"})"});
  EXPECT_EQ(first.exit_code, 0);
  ASSERT_EQ(first.lines.size(), 6u);
  // The auto-trigger fired once, at op 2; op 3 sits in the open window.
  EXPECT_NE(first.lines[4].find("\"checkpoints_published\":1"),
            std::string::npos)
      << first.lines[4];
  EXPECT_NE(first.lines[4].find("\"journal_base\":2"), std::string::npos);

  // Recovery loads the checkpoint and replays only the one-op tail.
  const RunResult second = RunSession(
      flags + " --recover",
      {R"({"cmd":"apply","op":"budget:3:50"})",
       R"({"cmd":"shutdown"})"});
  EXPECT_EQ(second.exit_code, 0);
  ASSERT_GE(second.lines.size(), 2u);
  EXPECT_NE(second.lines[0].find("\"recovered_ops\":3"), std::string::npos)
      << second.lines[0];
  EXPECT_NE(second.lines[0].find("\"recovered_from_checkpoint\":true"),
            std::string::npos);
  EXPECT_NE(second.lines[0].find("\"recovery_ops_replayed\":1"),
            std::string::npos);
  EXPECT_NE(second.lines[1].find("\"seq\":4"), std::string::npos);
}

TEST_F(ServeTest, CheckpointWithoutDirIsRequestError) {
  // No --checkpoint-dir: the checkpoint command fails but the session
  // lives on.
  const RunResult result = RunSession(
      "--in " + instance_path_,
      {R"({"cmd":"checkpoint"})",
       R"({"cmd":"stats"})",
       R"({"cmd":"shutdown"})"});
  EXPECT_EQ(result.exit_code, 0);
  ASSERT_EQ(result.lines.size(), 4u);
  EXPECT_NE(result.lines[1].find("\"ok\":false"), std::string::npos)
      << result.lines[1];
  EXPECT_NE(result.lines[2].find("\"ok\":true"), std::string::npos);
}

TEST_F(ServeTest, CheckpointFlagValidation) {
  // --checkpoint-every without --checkpoint-dir is a usage error.
  EXPECT_EQ(WEXITSTATUS(std::system(
                (Serve() + " --in " + instance_path_ +
                 " --checkpoint-every 5 < /dev/null > /dev/null 2>&1")
                    .c_str())),
            64);
  EXPECT_EQ(WEXITSTATUS(std::system(
                (Serve() + " --in " + instance_path_ +
                 " --checkpoint-dir " + TestTempPath("ckpt") +
                 " --checkpoint-every nope < /dev/null > /dev/null 2>&1")
                    .c_str())),
            64);
  EXPECT_EQ(WEXITSTATUS(std::system(
                (Serve() + " --in " + instance_path_ +
                 " --checkpoint-dir " + TestTempPath("ckpt") +
                 " --checkpoint-retain 0 < /dev/null > /dev/null 2>&1")
                    .c_str())),
            64);
}

TEST_F(ServeTest, BadFlagsFail) {
  EXPECT_NE(WEXITSTATUS(std::system(
                (Serve() + " --in /no/such/file.gepc < /dev/null"
                           " > /dev/null 2>&1")
                    .c_str())),
            0);
  EXPECT_NE(WEXITSTATUS(std::system(
                (Serve() + " --bogus-flag < /dev/null > /dev/null 2>&1")
                    .c_str())),
            0);
  EXPECT_NE(WEXITSTATUS(std::system(
                (Serve() + " < /dev/null > /dev/null 2>&1").c_str())),
            0);  // --in is required
  // Sharded-engine flags demand strict positive integers (exit 64).
  EXPECT_EQ(WEXITSTATUS(std::system(
                (Serve() + " --in " + instance_path_ +
                 " --threads 0 < /dev/null > /dev/null 2>&1")
                    .c_str())),
            64);
  EXPECT_EQ(WEXITSTATUS(std::system(
                (Serve() + " --in " + instance_path_ +
                 " --shards nope < /dev/null > /dev/null 2>&1")
                    .c_str())),
            64);
  // Service knobs reject non-numbers and trailing garbage the same way.
  EXPECT_EQ(WEXITSTATUS(std::system(
                (Serve() + " --in " + instance_path_ +
                 " --queue abc < /dev/null > /dev/null 2>&1")
                    .c_str())),
            64);
  EXPECT_EQ(WEXITSTATUS(std::system(
                (Serve() + " --in " + instance_path_ +
                 " --checkpoint-every 0x < /dev/null > /dev/null 2>&1")
                    .c_str())),
            64);
}

TEST_F(ServeTest, RebalanceCommandRunsAndShowsInStats) {
  // --rebalance-every 0 enables the tracker (on-demand rebalances only);
  // the explicit command must run one and the stats must expose the
  // tracker's counters afterwards.
  const RunResult result = RunSession(
      "--in " + instance_path_ + " --shards 2 --rebalance-every 0",
      {R"({"cmd":"apply","op":"budget:0:75.5"})",
       R"({"cmd":"apply","op":"loc:1:0.25:0.75"})",
       R"({"cmd":"rebalance"})",
       R"({"cmd":"stats"})",
       R"({"cmd":"shutdown"})"});
  EXPECT_EQ(result.exit_code, 0);
  ASSERT_EQ(result.lines.size(), 6u);
  EXPECT_NE(result.lines[3].find("\"ok\":true"), std::string::npos)
      << result.lines[3];
  EXPECT_NE(result.lines[3].find("\"rebalanced\":true"), std::string::npos)
      << result.lines[3];
  EXPECT_NE(result.lines[3].find("\"seq\":2"), std::string::npos);
  EXPECT_NE(result.lines[4].find("\"rebalance_shards\":2"),
            std::string::npos)
      << result.lines[4];
  EXPECT_NE(result.lines[4].find("\"rebalances\":1"), std::string::npos);
  EXPECT_NE(result.lines[4].find("\"shard_migrations\":"),
            std::string::npos);
}

TEST_F(ServeTest, RebalanceWithoutTrackerIsRequestError) {
  // Without --rebalance-every the tracker never exists; the command must
  // answer an error and leave the session healthy.
  const RunResult result = RunSession(
      "--in " + instance_path_,
      {R"({"cmd":"rebalance"})", R"({"cmd":"stats"})",
       R"({"cmd":"shutdown"})"});
  EXPECT_EQ(result.exit_code, 0);
  ASSERT_EQ(result.lines.size(), 4u);
  EXPECT_NE(result.lines[1].find("\"ok\":false"), std::string::npos)
      << result.lines[1];
  EXPECT_NE(result.lines[2].find("\"ok\":true"), std::string::npos);
}

TEST_F(ServeTest, RebalanceFlagValidation) {
  // The tracker needs at least two shards to balance between (exit 64).
  EXPECT_EQ(WEXITSTATUS(std::system(
                (Serve() + " --in " + instance_path_ +
                 " --rebalance-every 4 < /dev/null > /dev/null 2>&1")
                    .c_str())),
            64);
  EXPECT_EQ(WEXITSTATUS(std::system(
                (Serve() + " --in " + instance_path_ +
                 " --shards 2 --rebalance-every -3 < /dev/null > /dev/null "
                 "2>&1")
                    .c_str())),
            64);
  EXPECT_EQ(WEXITSTATUS(std::system(
                (Serve() + " --in " + instance_path_ +
                 " --shards 2 --rebalance-every 4 --rebalance-skew nope "
                 "< /dev/null > /dev/null 2>&1")
                    .c_str())),
            64);
}

}  // namespace
}  // namespace gepc
