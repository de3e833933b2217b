// Binary-level smoke test of the socket stack: starts `gepc_serve --listen`
// on an ephemeral port, points `gepc_bots` at it (mixed traffic, modest
// client count), and checks the load report — traffic flowed, the
// zero-committed-op-loss audit passed, and the bots' shutdown command took
// the server down cleanly.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "data/generator.h"
#include "data/io.h"
#include "tests/temp_path.h"

namespace gepc {
namespace {

using testing_support::TestTempPath;

/// Extracts the integer after `"key":`; -1 if absent.
int64_t FindIntField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(json.c_str() + pos + needle.size(), nullptr, 10);
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class BotsSmokeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig config;
    config.num_users = 60;
    config.num_events = 10;
    config.mean_xi = 1;
    config.mean_eta = 8;
    config.seed = 23;
    auto instance = GenerateInstance(config);
    ASSERT_TRUE(instance.ok()) << instance.status();
    instance_path_ = TestTempPath("bots_smoke.gepc");
    ASSERT_TRUE(SaveInstanceToFile(*instance, instance_path_).ok());
  }

  std::string instance_path_;
};

TEST_F(BotsSmokeTest, BotsDriveServeAndAuditCommittedOps) {
  const std::string ready_path = TestTempPath("ready.jsonl");
  const std::string report_path = TestTempPath("report.json");

  // Serve in the background on an ephemeral port; its ready line (the only
  // stdout before shutdown) carries the bound port.
  const std::string serve_cmd = std::string(GEPC_SERVE_PATH) + " --in " +
                                instance_path_ +
                                " --listen 127.0.0.1:0 > " + ready_path +
                                " 2>/dev/null &";
  ASSERT_EQ(std::system(serve_cmd.c_str()), 0);

  // Poll for the ready line (the startup solve takes a moment).
  int port = -1;
  for (int attempt = 0; attempt < 200 && port <= 0; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::string ready = ReadAll(ready_path);
    if (ready.find("\"ready\":true") != std::string::npos) {
      port = static_cast<int>(FindIntField(ready, "port"));
    }
  }
  ASSERT_GT(port, 0) << ReadAll(ready_path);

  // A short mixed closed-loop run; --shutdown stops the server afterwards.
  const std::string bots_cmd =
      std::string(GEPC_BOTS_PATH) + " --host 127.0.0.1 --port " +
      std::to_string(port) +
      " --clients 50 --duration-s 2 --mix op=0.5,read=0.4,stats=0.1"
      " --seed 3 --json " + report_path + " --shutdown > /dev/null 2>&1";
  EXPECT_EQ(WEXITSTATUS(std::system(bots_cmd.c_str())), 0);

  const std::string report = ReadAll(report_path);
  ASSERT_NE(report.find("\"bench\":\"gepc_bots\""), std::string::npos)
      << report;
  EXPECT_EQ(FindIntField(report, "committed_op_loss"), 0) << report;
  EXPECT_GT(FindIntField(report, "ops_total"), 0) << report;
  EXPECT_GT(FindIntField(report, "ops_ok"), 0) << report;
  EXPECT_GT(FindIntField(report, "acked_applied"), 0) << report;
  EXPECT_GE(FindIntField(report, "server_ops_applied"),
            FindIntField(report, "acked_applied"))
      << report;
  EXPECT_EQ(FindIntField(report, "connected"), 50) << report;

  // --shutdown took the server down: its bye line lands on stdout.
  bool bye = false;
  for (int attempt = 0; attempt < 200 && !bye; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    bye = ReadAll(ready_path).find("\"shutdown\":true") != std::string::npos;
  }
  EXPECT_TRUE(bye) << ReadAll(ready_path);
}

TEST_F(BotsSmokeTest, PoissonOpenLoopAlsoCompletes) {
  const std::string ready_path = TestTempPath("ready.jsonl");
  const std::string report_path = TestTempPath("report.json");
  const std::string serve_cmd = std::string(GEPC_SERVE_PATH) + " --in " +
                                instance_path_ +
                                " --listen 127.0.0.1:0 --net-queue 64 > " +
                                ready_path + " 2>/dev/null &";
  ASSERT_EQ(std::system(serve_cmd.c_str()), 0);
  int port = -1;
  for (int attempt = 0; attempt < 200 && port <= 0; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::string ready = ReadAll(ready_path);
    if (ready.find("\"ready\":true") != std::string::npos) {
      port = static_cast<int>(FindIntField(ready, "port"));
    }
  }
  ASSERT_GT(port, 0) << ReadAll(ready_path);

  const std::string bots_cmd =
      std::string(GEPC_BOTS_PATH) + " --host 127.0.0.1 --port " +
      std::to_string(port) +
      " --clients 20 --duration-s 2 --arrival poisson --rate 50"
      " --seed 5 --json " + report_path + " --shutdown > /dev/null 2>&1";
  EXPECT_EQ(WEXITSTATUS(std::system(bots_cmd.c_str())), 0);
  const std::string report = ReadAll(report_path);
  EXPECT_EQ(FindIntField(report, "committed_op_loss"), 0) << report;
  EXPECT_GT(FindIntField(report, "ops_total"), 0) << report;
}

TEST(BotsFlagsTest, BadFlagsExit64) {
  // Rejected before any connection is attempted; nothing listens on 1.
  for (const char* flags :
       {"", "--port 80x", "--port 1 --clients 5x", "--port 1 --frobnicate",
        "--port 1 --arrival poisson --rate 0", "--port 1 --mix op=0"}) {
    const std::string command = std::string(GEPC_BOTS_PATH) + " " + flags +
                                " > /dev/null 2>&1";
    EXPECT_EQ(WEXITSTATUS(std::system(command.c_str())), 64) << flags;
  }
}

}  // namespace
}  // namespace gepc
