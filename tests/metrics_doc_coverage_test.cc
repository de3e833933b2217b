// Keeps docs/observability.md honest: every metric family a running
// process exports (each `# TYPE` line of RenderAllMetricsText, after a
// service session that journals, checkpoints, tracks shards, rebalances
// and recovers, plus a GAP-based solve) must be named in full in the
// document. A shorthand such as `..._ops_applied_total` does not count, and
// a name only counts as a whole word, so `gepc_service_apply_ms` is not
// covered by `gepc_service_apply_ms_summary`.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "gepc/solver.h"
#include "iep/planner.h"
#include "service/dispatch.h"
#include "service/planning_service.h"
#include "service/torture.h"
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
    for (const AtomicOp& op : ops) (*service)->Apply(op);
    EXPECT_TRUE((*service)->Rebalance().rebalanced);
    (*service)->Shutdown();
  }
  auto recovered = PlanningService::Recover(instance, solved->plan, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  const std::string text = RenderAllMetricsText(**recovered);
  (*recovered)->Shutdown();
  SetLogLevel(previous_level);
  fs::remove_all(root, ec);

  int families = 0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    const std::string name = line.substr(7, line.find(' ', 7) - 7);
    EXPECT_TRUE(NamesWholeWord(doc, name))
        << "metric family \"" << name
        << "\" is exported but not named in docs/observability.md";
    ++families;
  }
  // The session reaches the solver, GAP, journal, checkpoint, recovery,
  // shard-tracker and service blocks; far fewer families means it no
  // longer exercises what it claims to.
  EXPECT_GE(families, 60);
}

}  // namespace
}  // namespace gepc
