// End-to-end tests of the gepc_cli binary (path injected by CMake as
// GEPC_CLI_PATH). Each test drives a full shell command and inspects exit
// codes and produced files — the closest thing to a user session.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "ckpt/checkpoint.h"
#include "data/io.h"
#include "tests/temp_path.h"

namespace gepc {
namespace {

using testing_support::TestTempPath;

std::string Cli() { return GEPC_CLI_PATH; }

int RunCommand(const std::string& command) {
  const int status = std::system((command + " > /dev/null 2>&1").c_str());
  return WEXITSTATUS(status);
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    instance_path_ = TestTempPath("cli_test.gepc");
    plan_path_ = TestTempPath("cli_test.gpln");
    ASSERT_EQ(RunCommand(Cli() + " generate --users 40 --events 10 --seed 5" +
                         " --xi 2 --eta 6 --out " + instance_path_),
              0);
  }

  std::string instance_path_;
  std::string plan_path_;
};

TEST_F(CliTest, GenerateProducesLoadableInstance) {
  auto instance = LoadInstanceFromFile(instance_path_);
  ASSERT_TRUE(instance.ok()) << instance.status();
  EXPECT_EQ(instance->num_users(), 40);
  EXPECT_EQ(instance->num_events(), 10);
}

TEST_F(CliTest, StatsSucceedsOnGeneratedInstance) {
  EXPECT_EQ(RunCommand(Cli() + " stats --in " + instance_path_), 0);
}

TEST_F(CliTest, SolveWritesValidPlan) {
  ASSERT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --algorithm greedy --plan-out " + plan_path_),
            0);
  auto plan = LoadPlanFromFile(plan_path_);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_GT(plan->TotalAssignments(), 0);
  // The CLI's own validator accepts it.
  EXPECT_EQ(RunCommand(Cli() + " validate --in " + instance_path_ +
                       " --plan " + plan_path_),
            0);
}

TEST_F(CliTest, GapAlgorithmAlsoSolves) {
  EXPECT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --algorithm gap --plan-out " + plan_path_),
            0);
}

TEST_F(CliTest, ValidateFlagsBrokenPlan) {
  ASSERT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --plan-out " + plan_path_),
            0);
  // Corrupt the plan: give user 0 every event (guaranteed conflicts).
  std::ofstream out(plan_path_, std::ios::app);
  for (int j = 0; j < 10; ++j) out << "p 1 " << j << "\n";
  out.close();
  const int code = RunCommand(Cli() + " validate --in " + instance_path_ +
                              " --plan " + plan_path_);
  EXPECT_NE(code, 0);
}

TEST_F(CliTest, ApplyRunsOpsAndWritesPlan) {
  ASSERT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --plan-out " + plan_path_),
            0);
  const std::string out_path = TestTempPath("cli_test_after.gpln");
  EXPECT_EQ(RunCommand(Cli() + " apply --in " + instance_path_ + " --plan " +
                       plan_path_ + " --op eta:0:1 --op xi:1:3 --reorder" +
                       " --plan-out " + out_path),
            0);
  auto plan = LoadPlanFromFile(out_path);
  ASSERT_TRUE(plan.ok());
  EXPECT_LE(plan->attendance(0), 1);
}

TEST_F(CliTest, ApplyWithShardsReportsMigrationsAndKeepsThePlan) {
  ASSERT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --plan-out " + plan_path_),
            0);
  const std::string ops =
      " --op budget:3:40 --op loc:2:20:80 --op eta:4:2 --op budget:11:5"
      " --op loc:6:75:30 --op eta:8:9";
  const std::string tracked_plan = TestTempPath("cli_test_tracked.gpln");
  const std::string plain_plan = TestTempPath("cli_test_plain.gpln");
  const std::string capture = TestTempPath("cli_test_tracked_stdout.txt");
  // --rebalance-skew 0 makes every --rebalance-every check fire, so the
  // rebalance count does not depend on measured apply times.
  ASSERT_EQ(WEXITSTATUS(std::system(
                (Cli() + " apply --in " + instance_path_ + " --plan " +
                 plan_path_ + ops +
                 " --shards 3 --rebalance-every 2 --rebalance-skew 0"
                 " --plan-out " + tracked_plan + " > " + capture + " 2>&1")
                    .c_str())),
            0);
  std::ifstream in(capture);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("ops applied:      6\n"), std::string::npos) << text;
  EXPECT_NE(text.find("shards:           3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("migrations:       4 (1 users reclassified, "
                      "1 events re-homed)\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("full rebuilds:    0\n"), std::string::npos) << text;
  EXPECT_NE(text.find("rebalances:       3\n"), std::string::npos) << text;

  // Tracking never changes the plan: the same ops without --shards write
  // the same file.
  ASSERT_EQ(RunCommand(Cli() + " apply --in " + instance_path_ + " --plan " +
                       plan_path_ + ops + " --plan-out " + plain_plan),
            0);
  std::ifstream tracked(tracked_plan, std::ios::binary);
  std::ifstream plain(plain_plan, std::ios::binary);
  const std::string tracked_bytes((std::istreambuf_iterator<char>(tracked)),
                                  std::istreambuf_iterator<char>());
  const std::string plain_bytes((std::istreambuf_iterator<char>(plain)),
                                std::istreambuf_iterator<char>());
  ASSERT_FALSE(tracked_bytes.empty());
  EXPECT_EQ(tracked_bytes, plain_bytes);
}

TEST_F(CliTest, ItineraryPrints) {
  ASSERT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --plan-out " + plan_path_),
            0);
  EXPECT_EQ(RunCommand(Cli() + " itinerary --in " + instance_path_ +
                       " --plan " + plan_path_),
            0);
  EXPECT_EQ(RunCommand(Cli() + " itinerary --in " + instance_path_ +
                       " --plan " + plan_path_ + " --user 0"),
            0);
  EXPECT_NE(RunCommand(Cli() + " itinerary --in " + instance_path_ +
                       " --plan " + plan_path_ + " --user 999"),
            0);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_NE(RunCommand(Cli() + " frobnicate"), 0);
  EXPECT_NE(RunCommand(Cli()), 0);  // no command at all
}

TEST_F(CliTest, UnknownFlagRejectedWithUsage) {
  const std::string command = Cli() + " stats --in " + instance_path_ +
                              " --frobnicate 3";
  EXPECT_EQ(RunCommand(command), 64);
  // The error message names the bad flag and the usage block follows.
  const std::string capture = TestTempPath("cli_test_stderr.txt");
  ASSERT_EQ(WEXITSTATUS(std::system(
                (command + " > /dev/null 2> " + capture).c_str())),
            64);
  std::ifstream in(capture);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("--frobnicate"), std::string::npos);
  EXPECT_NE(text.find("usage:"), std::string::npos);
}

TEST_F(CliTest, FlagMissingValueRejected) {
  EXPECT_EQ(RunCommand(Cli() + " stats --in"), 64);
  EXPECT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --algorithm"),
            64);
}

TEST_F(CliTest, StrayPositionalRejected) {
  EXPECT_EQ(RunCommand(Cli() + " stats --in " + instance_path_ + " extra"),
            64);
}

TEST_F(CliTest, FlagFromOtherCommandRejected) {
  // --op belongs to `apply`, not `stats`.
  EXPECT_EQ(RunCommand(Cli() + " stats --in " + instance_path_ +
                       " --op eta:0:1"),
            64);
}

TEST_F(CliTest, MissingFilesFailCleanly) {
  EXPECT_NE(RunCommand(Cli() + " stats --in /no/such/file.gepc"), 0);
  EXPECT_NE(RunCommand(Cli() + " solve --in /no/such/file.gepc"), 0);
}

TEST_F(CliTest, BadOpSpecFails) {
  ASSERT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --plan-out " + plan_path_),
            0);
  EXPECT_NE(RunCommand(Cli() + " apply --in " + instance_path_ + " --plan " +
                       plan_path_ + " --op bogus:1:2"),
            0);
}

TEST_F(CliTest, ShardedSolveWritesValidPlan) {
  ASSERT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --shards 3 --threads 2 --plan-out " + plan_path_),
            0);
  EXPECT_EQ(RunCommand(Cli() + " validate --in " + instance_path_ +
                       " --plan " + plan_path_),
            0);
}

TEST_F(CliTest, ShardedSolveIndependentOfThreadCount) {
  const std::string one = TestTempPath("cli_test_t1.gpln");
  const std::string eight = TestTempPath("cli_test_t8.gpln");
  ASSERT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --shards 4 --threads 1 --plan-out " + one),
            0);
  ASSERT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --shards 4 --threads 8 --plan-out " + eight),
            0);
  auto plan_one = LoadPlanFromFile(one);
  auto plan_eight = LoadPlanFromFile(eight);
  ASSERT_TRUE(plan_one.ok() && plan_eight.ok());
  EXPECT_TRUE(*plan_one == *plan_eight);
}

TEST_F(CliTest, InvalidThreadsOrShardsRejectedWithUsage) {
  EXPECT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --threads 0"),
            64);
  EXPECT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --threads -2"),
            64);
  EXPECT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --shards banana"),
            64);
  EXPECT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --shards 4x"),
            64);
  // --threads/--shards belong to solve only.
  EXPECT_EQ(RunCommand(Cli() + " stats --in " + instance_path_ +
                       " --threads 2"),
            64);
  // Trailing garbage is rejected in every command's integer flags.
  EXPECT_EQ(RunCommand(Cli() + " generate --users 12x --events 5 --out " +
                       TestTempPath("garbage.gepc")),
            64);
  ASSERT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --plan-out " + plan_path_),
            0);
  EXPECT_EQ(RunCommand(Cli() + " itinerary --in " + instance_path_ +
                       " --plan " + plan_path_ + " --user abc"),
            64);
}

TEST_F(CliTest, SolveMetricsPrintsExposition) {
  const std::string capture = TestTempPath("cli_test_metrics_stdout.txt");
  ASSERT_EQ(WEXITSTATUS(std::system((Cli() + " solve --in " + instance_path_ +
                                     " --metrics > " + capture + " 2>&1")
                                        .c_str())),
            0);
  std::ifstream in(capture);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("--- metrics ---"), std::string::npos);
  EXPECT_NE(text.find("gepc_solver_solves_total 1"), std::string::npos);
  EXPECT_NE(text.find("# TYPE gepc_solver_total_ms histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE gepc_solver_topup_ms histogram"),
            std::string::npos);
}

TEST_F(CliTest, SolveMetricsFileForm) {
  const std::string metrics_path = TestTempPath("cli_test_metrics.prom");
  std::remove(metrics_path.c_str());
  ASSERT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --metrics=" + metrics_path),
            0);
  std::ifstream in(metrics_path);
  ASSERT_TRUE(in.good()) << "metrics file not written";
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("gepc_solver_solves_total 1"), std::string::npos);
}

TEST_F(CliTest, SolveTraceWritesChromeTraceJson) {
  const std::string trace_path = TestTempPath("cli_test_trace.json");
  std::remove(trace_path.c_str());
  ASSERT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ + " --trace " +
                       trace_path),
            0);
  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << "trace file not written";
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"gepc.solve\""), std::string::npos);
}

class CliCkptTest : public CliTest {
 protected:
  // A real checkpoint directory with two valid GCKP1 files (versions 1, 2).
  void SetUp() override {
    CliTest::SetUp();
    ckpt_dir_ = TestTempPath("ckpt");
    std::error_code ec;
    std::filesystem::remove_all(ckpt_dir_, ec);
    std::filesystem::create_directories(ckpt_dir_, ec);
    ASSERT_FALSE(ec) << ec.message();
    auto instance = LoadInstanceFromFile(instance_path_);
    ASSERT_TRUE(instance.ok()) << instance.status();
    Plan plan(instance->num_users(), instance->num_events());
    for (const uint64_t version : {1u, 2u}) {
      auto path = WriteCheckpoint(ckpt_dir_, *instance, plan, version);
      ASSERT_TRUE(path.ok()) << path.status().ToString();
      if (version == 2) newest_path_ = *path;
    }
  }

  std::string ckpt_dir_;
  std::string newest_path_;
};

TEST_F(CliCkptTest, InspectSingleValidCheckpoint) {
  EXPECT_EQ(RunCommand(Cli() + " ckpt-inspect --ckpt " + newest_path_), 0);
}

TEST_F(CliCkptTest, InspectDirectoryListsNewestFirst) {
  const std::string out_path = TestTempPath("ckpt_inspect.txt");
  ASSERT_EQ(WEXITSTATUS(std::system((Cli() + " ckpt-inspect --dir " +
                                     ckpt_dir_ + " > " + out_path + " 2>&1")
                                        .c_str())),
            0);
  std::ifstream in(out_path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Version 2 is reported before version 1.
  const size_t v2 = text.find("version:          2");
  const size_t v1 = text.find("version:          1");
  EXPECT_NE(v2, std::string::npos) << text;
  EXPECT_NE(v1, std::string::npos) << text;
  EXPECT_LT(v2, v1);
}

TEST_F(CliCkptTest, TornCheckpointIsDefectiveAndExitIsNonzero) {
  std::error_code ec;
  std::filesystem::resize_file(newest_path_, 40, ec);
  ASSERT_FALSE(ec);
  // Single-file mode reports the defect...
  EXPECT_EQ(RunCommand(Cli() + " ckpt-inspect --ckpt " + newest_path_), 1);
  // ...and directory mode flags the dir as unhealthy while still listing
  // the intact sibling.
  EXPECT_EQ(RunCommand(Cli() + " ckpt-inspect --dir " + ckpt_dir_), 1);
}

TEST_F(CliCkptTest, UsageErrorsExit64) {
  // Exactly one of --ckpt / --dir is required.
  EXPECT_EQ(RunCommand(Cli() + " ckpt-inspect"), 64);
  EXPECT_EQ(RunCommand(Cli() + " ckpt-inspect --ckpt " + newest_path_ +
                       " --dir " + ckpt_dir_),
            64);
  EXPECT_EQ(RunCommand(Cli() + " ckpt-inspect --bogus x"), 64);
}

TEST_F(CliTest, ScheduleSearchRuns) {
  EXPECT_EQ(RunCommand(Cli() + " schedule --users 50 --drafts 3"
                       " --candidates 3 --seed 7"),
            0);
}

TEST_F(CliTest, ScheduleExhaustiveAndAffinityRun) {
  EXPECT_EQ(RunCommand(Cli() + " schedule --users 40 --drafts 2"
                       " --candidates 2 --seed 3 --exhaustive"
                       " --lambda 0.5 --degree 5 --threads 2"),
            0);
  EXPECT_EQ(RunCommand(Cli() + " schedule --users 40 --drafts 2"
                       " --candidates 2 --no-memoize"),
            0);
}

TEST_F(CliTest, ScheduleFlagsValidatedStrictly) {
  EXPECT_EQ(RunCommand(Cli() + " schedule --drafts 0"), 64);
  EXPECT_EQ(RunCommand(Cli() + " schedule --candidates -3"), 64);
  EXPECT_EQ(RunCommand(Cli() + " schedule --lambda -0.5"), 64);
  EXPECT_EQ(RunCommand(Cli() + " schedule --threads 4x"), 64);
  EXPECT_EQ(RunCommand(Cli() + " schedule --exhaustive=1"), 64);
  EXPECT_EQ(RunCommand(Cli() + " schedule --users 20 --seed 7x"), 64);
}

TEST_F(CliTest, SimScenarioPresetsRun) {
  EXPECT_EQ(RunCommand(Cli() + " sim --scenario scheduling --days 2"
                       " --users 30 --events 6 --seed 4"),
            0);
  EXPECT_EQ(RunCommand(Cli() + " sim --scenario=affinity --days 2"
                       " --users 30 --events 6 --resolve"),
            0);
  EXPECT_EQ(RunCommand(Cli() + " sim --scenario mixed --days 2 --users 30"
                       " --events 6"),
            0);
}

TEST_F(CliTest, SimScenarioValidatedStrictly) {
  EXPECT_EQ(RunCommand(Cli() + " sim --days 2"), 64);          // no scenario
  EXPECT_EQ(RunCommand(Cli() + " sim --scenario bogus"), 64);  // unknown
  EXPECT_EQ(RunCommand(Cli() + " sim --scenario mixed --days 0"), 64);
  EXPECT_EQ(RunCommand(Cli() + " sim --scenario mixed --resolve=1"), 64);
}

TEST_F(CliTest, ObservabilityFlagsValidatedStrictly) {
  // --trace is a required-value flag; --metrics only takes the = form.
  EXPECT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ + " --trace"),
            64);
  // --metrics belongs to solve only.
  EXPECT_EQ(RunCommand(Cli() + " stats --in " + instance_path_ +
                       " --metrics"),
            64);
  // = on a flag that takes no value is rejected.
  EXPECT_EQ(RunCommand(Cli() + " solve --in " + instance_path_ +
                       " --no-topup=1"),
            64);
}

}  // namespace
}  // namespace gepc
