#include "repl/failover.h"

#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "data/generator.h"
#include "gepc/solver.h"
#include "net/server.h"
#include "repl/follower.h"
#include "repl/source.h"
#include "service/dispatch.h"
#include "service/planning_service.h"
#include "service/torture.h"

namespace gepc {
namespace repl {

namespace {

namespace fs = std::filesystem;

/// Re-creates `dir` empty.
Status FreshDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  if (!fs::create_directories(dir, ec) && ec) {
    return Status::Internal("cannot create " + dir + ": " + ec.message());
  }
  return Status::OK();
}

}  // namespace

Result<FailoverTortureReport> RunFailoverTorture(
    const FailoverTortureOptions& options) {
  if (options.workdir.empty()) {
    return Status::InvalidArgument("FailoverTortureOptions.workdir required");
  }
  std::error_code ec;
  if (!fs::is_directory(options.workdir, ec)) {
    return Status::InvalidArgument("workdir is not a directory: " +
                                   options.workdir);
  }

  // 1. Seeded city + base plan + the reference op stream and states.
  GeneratorConfig config;
  config.num_users = options.users;
  config.num_events = options.events;
  config.seed = options.seed;
  GEPC_ASSIGN_OR_RETURN(const Instance base, GenerateInstance(config));
  GEPC_ASSIGN_OR_RETURN(GepcResult solved, SolveGepc(base));
  const Plan base_plan = std::move(solved.plan);

  GEPC_ASSIGN_OR_RETURN(IncrementalPlanner generator_planner,
                        IncrementalPlanner::Create(base, base_plan));
  const std::vector<AtomicOp> ops =
      GenerateTortureOps(&generator_planner, options.ops, options.seed);

  GEPC_ASSIGN_OR_RETURN(IncrementalPlanner reference,
                        IncrementalPlanner::Create(base, base_plan));
  std::vector<std::string> states;  // states[i] = serialized state after i ops
  GEPC_ASSIGN_OR_RETURN(std::string initial,
                        SerializeServiceState(base, base_plan, 0));
  states.push_back(std::move(initial));
  for (const AtomicOp& op : ops) {
    reference.Apply(op);
    GEPC_ASSIGN_OR_RETURN(
        std::string state,
        SerializeServiceState(reference.instance(), reference.plan(),
                              states.size()));
    states.push_back(std::move(state));
  }

  FailoverTortureReport report;
  report.ops_total = ops.size();
  auto fail = [&report](std::string what) {
    if (report.failure.empty()) report.failure = std::move(what);
  };

  // 2. Kill offsets: 0, stride, 2*stride, ..., always including the end.
  std::vector<size_t> offsets;
  const size_t stride =
      options.offset_stride > 0 ? static_cast<size_t>(options.offset_stride) : 1;
  for (size_t k = 0; k <= ops.size(); k += stride) offsets.push_back(k);
  if (offsets.back() != ops.size()) offsets.push_back(ops.size());

  const std::string primary_dir = options.workdir + "/failover_primary";
  const std::string follower_dir = options.workdir + "/failover_follower";

  for (const size_t k : offsets) {
    GEPC_RETURN_IF_ERROR(FreshDir(primary_dir));
    GEPC_RETURN_IF_ERROR(FreshDir(primary_dir + "/ckpt"));
    GEPC_RETURN_IF_ERROR(FreshDir(follower_dir));

    // Fresh primary with replication on an ephemeral port.
    ServiceOptions primary_options;
    primary_options.journal_path = primary_dir + "/journal.gops";
    primary_options.checkpoint_dir = primary_dir + "/ckpt";
    primary_options.checkpoint_every = options.checkpoint_every;
    GEPC_ASSIGN_OR_RETURN(
        std::unique_ptr<PlanningService> primary,
        PlanningService::Create(base, base_plan, primary_options));

    ReplicationSourceOptions source_options;
    source_options.journal_path = primary_options.journal_path;
    source_options.checkpoint_dir = primary_options.checkpoint_dir;
    source_options.heartbeat_interval_ms = 50;
    ReplicationSource source(primary.get(), source_options);

    net::NetServerOptions server_options;
    server_options.port = 0;
    server_options.read_workers = 1;
    server_options.op_workers = 1;
    net::NetServer server(
        server_options, [](const std::string&) {
          return net::HandlerResult{R"({"ok":false,"error":"repl only"})",
                                    false};
        });
    GEPC_RETURN_IF_ERROR(source.Attach(&server));
    GEPC_RETURN_IF_ERROR(server.Start());

    // Follower bootstraps empty: the primary must ship a checkpoint.
    ServeRole role;
    FollowerOptions follower_options;
    follower_options.primary_host = "127.0.0.1";
    follower_options.primary_port = server.port();
    follower_options.journal_path = follower_dir + "/journal.gops";
    follower_options.checkpoint_dir = follower_dir + "/ckpt";
    follower_options.promote_after_ms = 0;  // the harness promotes manually
    follower_options.heartbeat_timeout_ms = 2000;
    follower_options.bootstrap_timeout_ms = 10000;
    auto started = Follower::Start(follower_options, &role);
    if (!started.ok()) {
      return Status(started.status().code(),
                    "offset " + std::to_string(k) + ": follower bootstrap: " +
                        started.status().message());
    }
    std::unique_ptr<Follower> follower = std::move(*started);
    if (follower->stats().checkpoints_received > 0) {
      ++report.checkpoint_bootstraps;
    }

    // Drive the primary through the first k ops of the reference stream.
    for (size_t i = 0; i < k; ++i) {
      const ApplyOutcome outcome = primary->Apply(ops[i]);
      if (outcome.sequence != i + 1) {
        return Status::Internal("offset " + std::to_string(k) +
                                ": primary op " + std::to_string(i + 1) +
                                " landed at sequence " +
                                std::to_string(outcome.sequence));
      }
    }
    if (!follower->WaitForApplied(k, /*timeout_ms=*/15000)) {
      fail("offset " + std::to_string(k) + ": follower stuck at " +
           std::to_string(follower->stats().applied) + "/" +
           std::to_string(k));
      ++report.offsets_exercised;
      continue;
    }

    // 3. Kill the primary the hard way a follower perceives it: sockets die
    // (EOF), process state gone. Then promote.
    source.Stop();
    server.Stop();
    primary.reset();

    follower->Stop();  // joins the tail thread; promotion below is race-free
    if (Status promoted = follower->PromoteNow(); !promoted.ok()) {
      fail("offset " + std::to_string(k) +
           ": promotion failed: " + promoted.message());
      ++report.offsets_exercised;
      continue;
    }
    ++report.promotions;
    if (role.follower.load(std::memory_order_acquire)) {
      fail("offset " + std::to_string(k) + ": role still follower");
    }

    const auto snapshot = follower->service()->snapshot();
    GEPC_ASSIGN_OR_RETURN(
        const std::string promoted_state,
        SerializeServiceState(*snapshot->instance, *snapshot->plan,
                              snapshot->version));
    if (promoted_state != states[k]) {
      ++report.state_mismatches;
      fail("offset " + std::to_string(k) +
           ": promoted state diverges from the reference (version " +
           std::to_string(snapshot->version) + ", expected " +
           std::to_string(k) + ")");
    }

    // 4. The promoted primary must accept writes, continuing the sequence.
    const AtomicOp resume =
        AtomicOp::BudgetChange(0, snapshot->instance->user(0).budget);
    const ApplyOutcome outcome = follower->service()->Apply(resume);
    if (!outcome.applied || outcome.sequence != k + 1) {
      ++report.resumed_write_failures;
      fail("offset " + std::to_string(k) + ": resumed write landed as (seq " +
           std::to_string(outcome.sequence) + ", applied " +
           (outcome.applied ? "true" : "false") + "), expected seq " +
           std::to_string(k + 1));
    }
    ++report.offsets_exercised;
  }

  report.passed = report.failure.empty();
  return report;
}

}  // namespace repl
}  // namespace gepc
