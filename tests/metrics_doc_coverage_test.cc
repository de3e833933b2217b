// Keeps docs/observability.md honest in both directions, against the
// `# TYPE` lines of RenderAllMetricsText after one session: a service that
// journals, checkpoints, tracks shards, rebalances and recovers, serves a
// loopback follower through a NetServer with a ReplicationSource, plus a
// GAP-based solve, a 3-shard SolveSharded, a SolveSchedule and an exact
// solve.
//
//   * Every exported family must be named in full in the document. A
//     shorthand such as `..._ops_applied_total` does not count, and a name
//     only counts as a whole word, so `gepc_service_apply_ms` is not
//     covered by `gepc_service_apply_ms_summary`.
//   * Every family named in the first cell of a table row must be
//     exported, so a row outlives its metric only as a test failure.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "gepc/exact.h"
#include "gepc/solver.h"
#include "iep/planner.h"
#include "net/server.h"
#include "repl/follower.h"
#include "repl/source.h"
#include "sched/schedule.h"
#include "service/dispatch.h"
#include "service/planning_service.h"
#include "service/torture.h"
#include "shard/sharded_solver.h"
#include "tests/local_instance.h"
#include "tests/temp_path.h"

#ifndef GEPC_METRICS_DOC_PATH
#error "GEPC_METRICS_DOC_PATH must point at docs/observability.md"
#endif

namespace gepc {
namespace {

namespace fs = std::filesystem;
using testing_support::MakeLocalInstance;

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
}

/// True when `name` occurs in `doc` with no identifier character on
/// either side.
bool NamesWholeWord(const std::string& doc, const std::string& name) {
  for (size_t at = doc.find(name); at != std::string::npos;
       at = doc.find(name, at + 1)) {
    const size_t end = at + name.size();
    if ((at == 0 || !IsNameChar(doc[at - 1])) &&
        (end == doc.size() || !IsNameChar(doc[end]))) {
      return true;
    }
  }
  return false;
}

/// The `gepc_*` names in the first cell of each table row of `doc`.
std::vector<std::string> TableRowFamilies(const std::string& doc) {
  std::vector<std::string> names;
  std::istringstream lines(doc);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("| ", 0) != 0) continue;
    const std::string cell = line.substr(0, line.find('|', 1));
    for (size_t at = cell.find("`gepc_"); at != std::string::npos;
         at = cell.find("`gepc_", at + 1)) {
      const size_t end = cell.find('`', at + 1);
      if (end == std::string::npos) break;
      names.push_back(cell.substr(at + 1, end - at - 1));
    }
  }
  return names;
}

TEST(MetricsDocCoverageTest, EveryExportedFamilyIsDocumented) {
  std::ifstream in(GEPC_METRICS_DOC_PATH);
  ASSERT_TRUE(in.good()) << "cannot open " << GEPC_METRICS_DOC_PATH;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string doc = buffer.str();
  ASSERT_FALSE(doc.empty());

  const LogLevel previous_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  const std::string root = testing_support::TestTempPath("session");
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root, ec);
  ASSERT_FALSE(ec) << ec.message();

  Instance instance = MakeLocalInstance(60, 12, 5);
  GepcOptions gap;
  gap.algorithm = GepcAlgorithm::kGapBased;
  ASSERT_TRUE(SolveGepc(instance, gap).ok());
  ShardedGepcOptions sharded;
  sharded.shards = 3;
  ASSERT_TRUE(SolveSharded(instance, sharded).ok());
  ScheduleGenConfig schedule;
  schedule.num_users = 30;
  schedule.num_drafts = 2;
  schedule.seed = 3;
  ASSERT_TRUE(SolveSchedule(GenerateScheduleProblem(schedule)).ok());
  ASSERT_TRUE(SolveGepcExact(MakeLocalInstance(6, 4, 1)).ok());
  auto solved = SolveGepc(instance, GepcOptions{});
  ASSERT_TRUE(solved.ok()) << solved.status();
  auto scratch = IncrementalPlanner::Create(instance, solved->plan);
  ASSERT_TRUE(scratch.ok()) << scratch.status();
  const std::vector<AtomicOp> ops = GenerateTortureOps(&*scratch, 30, 3);

  ServiceOptions options;
  options.journal_path = root + "/service.gops";
  options.checkpoint_dir = root + "/ckpt";
  options.checkpoint_every = 10;
  options.rebalance_shards = 3;
  {
    auto service = PlanningService::Create(instance, solved->plan, options);
    ASSERT_TRUE(service.ok()) << service.status();
    // Declared so that they are torn down follower first and service last,
    // by the resets below or, after a failed ASSERT, by scope exit.
    net::NetServerOptions server_options;
    server_options.port = 0;
    server_options.read_workers = 1;
    server_options.op_workers = 1;
    auto server = std::make_unique<net::NetServer>(
        std::move(server_options), [](const std::string&) {
          return net::HandlerResult{R"({"ok":false,"error":"repl only"})",
                                    false};
        });
    repl::ReplicationSourceOptions source_options;
    source_options.journal_path = options.journal_path;
    source_options.checkpoint_dir = options.checkpoint_dir;
    source_options.heartbeat_interval_ms = 50;
    auto source = std::make_unique<repl::ReplicationSource>(service->get(),
                                                            source_options);
    ASSERT_TRUE(source->Attach(server.get()).ok());
    ASSERT_TRUE(server->Start().ok());
    fs::create_directories(root + "/follower/ckpt", ec);
    ASSERT_FALSE(ec) << ec.message();
    repl::FollowerOptions follower_options;
    follower_options.primary_port = server->port();
    follower_options.journal_path = root + "/follower/j.gops";
    follower_options.checkpoint_dir = root + "/follower/ckpt";
    follower_options.promote_after_ms = 0;
    follower_options.bootstrap_timeout_ms = 8000;
    ServeRole role;
    auto follower = repl::Follower::Start(follower_options, &role);
    ASSERT_TRUE(follower.ok()) << follower.status();

    for (const AtomicOp& op : ops) (*service)->Apply(op);
    EXPECT_TRUE((*service)->Rebalance().rebalanced);
    EXPECT_TRUE((*follower)->WaitForApplied(
        (*service)->snapshot()->version, /*timeout_ms=*/10000));
    follower->reset();
    source.reset();
    server.reset();
    (*service)->Shutdown();
  }
  auto recovered = PlanningService::Recover(instance, solved->plan, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  const std::string text = RenderAllMetricsText(**recovered);
  (*recovered)->Shutdown();
  SetLogLevel(previous_level);
  fs::remove_all(root, ec);

  std::set<std::string> exported;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    const std::string name = line.substr(7, line.find(' ', 7) - 7);
    EXPECT_TRUE(NamesWholeWord(doc, name))
        << "metric family \"" << name
        << "\" is exported but not named in docs/observability.md";
    exported.insert(name);
  }
  // The session reaches the solver, GAP, journal, checkpoint, recovery,
  // shard-tracker, service, net, replication, sharded-solve and scheduler
  // blocks; far fewer families means it no longer exercises what it
  // claims to.
  EXPECT_GE(exported.size(), 60u);

  const std::vector<std::string> documented = TableRowFamilies(doc);
  EXPECT_GE(documented.size(), 60u);
  for (const std::string& name : documented) {
    EXPECT_EQ(exported.count(name), 1u)
        << "metric family \"" << name
        << "\" has a row in docs/observability.md but is not exported";
  }
}

}  // namespace
}  // namespace gepc
