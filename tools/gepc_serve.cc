// gepc_serve — long-running online planning service front end.
//
//   gepc_serve --in inst.gepc [--plan plan.gpln] [--journal ops.gops]
//              [--recover] [--algorithm greedy|gap|regret]
//              [--threads N] [--shards K]
//              [--rebalance-every N] [--rebalance-skew X]
//              [--queue N] [--faults SPEC]
//              [--checkpoint-dir DIR] [--checkpoint-every N]
//              [--checkpoint-retain N]
//              [--metrics FILE] [--trace FILE]
//              [--listen [HOST:]PORT] [--max-conns N]
//              [--net-read-workers N] [--net-op-workers N]
//              [--net-queue N] [--net-compress]
//              [--repl] [--repl-heartbeat-ms N]
//   gepc_serve --follow HOST:PORT --journal ops.gops --checkpoint-dir DIR
//              [--listen [HOST:]PORT] [--repl-timeout-ms N]
//              [--repl-promote-after-ms N] ...
//
// Loads the instance (solving it with the chosen algorithm unless --plan is
// given), wraps it in a PlanningService, and serves the JSONL command set
// (src/service/dispatch.h) through one of two front ends sharing that
// single dispatch layer:
//
//   * default: line-oriented JSONL on stdin/stdout — one flat JSON object
//     per line each way:
//
//       -> {"cmd":"apply","op":"eta:3:10"}
//       <- {"ok":true,"seq":1,"applied":true,"dif":2,"utility":88.25,...}
//       -> {"cmd":"query_user","user":7}
//       <- {"ok":true,"user":7,"utility":1.62,...,"stops":[...]}
//       -> {"cmd":"stats"} / {"cmd":"metrics"} / {"cmd":"faults"}
//       -> {"cmd":"save_plan","path":"now.gpln"} / {"cmd":"rebuild"}
//       -> {"cmd":"checkpoint"} / {"cmd":"drain"} / {"cmd":"shutdown"}
//
//     Errors never kill the session: {"ok":false,"error":"..."} and the
//     loop continues. EOF on stdin is treated as shutdown.
//
//   * --listen: an epoll socket server (src/net/) speaking the same JSONL
//     commands inside length-prefixed binary frames to thousands of
//     concurrent clients, with admission control — a saturated op queue
//     answers with a Status frame instead of blocking the accept loop.
//     Port 0 binds an ephemeral port; the ready line reports the real one.
//     The server runs until a client sends {"cmd":"shutdown"} or the
//     process receives SIGINT/SIGTERM. See docs/network-protocol.md.
//
// Replication (docs/replication.md): --repl turns a --listen primary into a
// replication endpoint (followers bootstrap from shipped checkpoints, then
// tail committed journal rows); --follow HOST:PORT boots this process as a
// follower of that primary instead of loading --in — it serves reads from
// its replayed state, redirects writes to the primary, and promotes itself
// when the primary stays gone past --repl-promote-after-ms.
//
// See docs/cli.md for the full protocol and docs/file-formats.md for the
// journal format.

#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <thread>

#include "common/flags.h"
#include "data/io.h"
#include "fault/fault.h"
#include "gepc/solver.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "repl/follower.h"
#include "repl/source.h"
#include "service/dispatch.h"
#include "service/jsonl.h"
#include "service/planning_service.h"
#include "shard/sharded_solver.h"

namespace gepc {
namespace serve {

volatile std::sig_atomic_t g_signal = 0;
void OnSignal(int) { g_signal = 1; }

struct Args {
  std::string in;
  std::string plan;
  std::string journal;
  std::string algorithm = "greedy";
  std::string faults;
  /// Written at shutdown: Prometheus text (--metrics) and chrome://tracing
  /// JSON (--trace). --trace also turns span recording on.
  std::string metrics_file;
  std::string trace_file;
  bool recover = false;
  int queue_capacity = 1024;
  /// Durable checkpointing (src/ckpt): directory for GCKP1 files, the
  /// auto-trigger cadence (0 = on demand only), and how many generations
  /// survive each publication.
  std::string checkpoint_dir;
  int checkpoint_every = 0;
  int checkpoint_retain = 2;
  /// Sharded-engine defaults: used for the startup solve (when no --plan is
  /// given) and as the defaults of the `rebuild` command.
  int threads = 1;
  int shards = 1;
  /// Online rebalancing (src/shard/rebalance.h): --rebalance-every enables
  /// the live ShardTracker over --shards shards. N > 0 checks the load skew
  /// every N applied ops; 0 keeps the tracker on-demand only (the
  /// `rebalance` command). -1 (no flag) disables the tracker entirely.
  int rebalance_every = -1;
  double rebalance_skew = 2.0;
  /// Socket front end (src/net): empty keeps the stdio JSONL mode.
  bool listen = false;
  std::string listen_host = "127.0.0.1";
  int listen_port = 0;
  int max_connections = 4096;
  int net_read_workers = 2;
  int net_op_workers = 2;
  int net_queue = 256;
  bool net_compress = false;
  /// Replication (src/repl): --repl exposes this --listen primary as a
  /// replication endpoint; --follow makes this process a follower of the
  /// given primary instead of loading --in.
  bool repl = false;
  bool follow = false;
  std::string follow_host = "127.0.0.1";
  int follow_port = 0;
  int repl_heartbeat_ms = 500;
  int repl_timeout_ms = 3000;
  int repl_promote_after_ms = 10000;  // 0 disables automatic promotion
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: gepc_serve --in inst.gepc [--plan plan.gpln]\n"
      "                  [--journal ops.gops] [--recover]\n"
      "                  [--algorithm greedy|gap|regret]\n"
      "                  [--threads N] [--shards K]\n"
      "                  [--rebalance-every N] [--rebalance-skew X]\n"
      "                  [--queue N] [--faults SPEC]\n"
      "                  [--checkpoint-dir DIR] [--checkpoint-every N]\n"
      "                  [--checkpoint-retain N]\n"
      "                  [--metrics FILE] [--trace FILE]\n"
      "                  [--listen [HOST:]PORT] [--max-conns N]\n"
      "                  [--net-read-workers N] [--net-op-workers N]\n"
      "                  [--net-queue N] [--net-compress]\n"
      "                  [--repl] [--repl-heartbeat-ms N]\n"
      "   or: gepc_serve --follow HOST:PORT --journal ops.gops\n"
      "                  --checkpoint-dir DIR [--listen [HOST:]PORT]\n"
      "                  [--repl-timeout-ms N] [--repl-promote-after-ms N]\n"
      "Speaks a JSONL request/response protocol on stdin/stdout, or (with\n"
      "--listen) the same commands over length-prefixed binary frames on a\n"
      "TCP socket; see docs/cli.md, docs/network-protocol.md and\n"
      "docs/replication.md.\n");
  return 64;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

Status ParseArgs(int argc, char** argv, Args* args) {
  constexpr int kMax = 1'000'000;
  FlagTable flags = {
      Flag::String("in", &args->in),
      Flag::String("plan", &args->plan),
      Flag::String("journal", &args->journal),
      Flag::Bool("recover", &args->recover),
      Flag::Enum("algorithm", &args->algorithm, {"greedy", "gap", "regret"}),
      Flag::Int("threads", &args->threads, 1, kMax),
      Flag::Int("shards", &args->shards, 1, kMax),
      Flag::Int("rebalance-every", &args->rebalance_every, 0, kMax),
      Flag::Double("rebalance-skew", &args->rebalance_skew, 0.0),
      Flag::Int("queue", &args->queue_capacity, 1,
                std::numeric_limits<int>::max()),
      Flag::String("faults", &args->faults),
      Flag::String("checkpoint-dir", &args->checkpoint_dir),
      Flag::Int("checkpoint-every", &args->checkpoint_every, 1, kMax),
      Flag::Int("checkpoint-retain", &args->checkpoint_retain, 1, kMax),
      Flag::String("metrics", &args->metrics_file),
      Flag::String("trace", &args->trace_file),
      Flag::Custom("listen",
                   [args](const std::string& spec) {
                     args->listen = true;
                     return ParseHostPort(spec, 0, &args->listen_host,
                                          &args->listen_port);
                   }),
      Flag::Int("max-conns", &args->max_connections, 1, kMax),
      Flag::Int("net-read-workers", &args->net_read_workers, 1, kMax),
      Flag::Int("net-op-workers", &args->net_op_workers, 1, kMax),
      Flag::Int("net-queue", &args->net_queue, 1, kMax),
      Flag::Bool("net-compress", &args->net_compress),
      Flag::Bool("repl", &args->repl),
      Flag::Custom("follow",
                   [args](const std::string& spec) {
                     args->follow = true;
                     return ParseHostPort(spec, 1, &args->follow_host,
                                          &args->follow_port);
                   }),
      Flag::Int("repl-heartbeat-ms", &args->repl_heartbeat_ms, 1, kMax),
      Flag::Int("repl-timeout-ms", &args->repl_timeout_ms, 1, kMax),
      Flag::Int("repl-promote-after-ms", &args->repl_promote_after_ms, 0,
                kMax),
  };
  GEPC_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (args->follow) {
    if (!args->in.empty()) {
      return Status::InvalidArgument(
          "--follow and --in are incompatible (a follower's state comes "
          "from the primary)");
    }
    if (args->recover) {
      return Status::InvalidArgument(
          "--follow recovers local state automatically; drop --recover");
    }
    if (args->repl) {
      return Status::InvalidArgument(
          "--follow and --repl are incompatible (no chained replication)");
    }
    if (args->journal.empty() || args->checkpoint_dir.empty()) {
      return Status::InvalidArgument(
          "--follow needs --journal and --checkpoint-dir (promotion and "
          "crash recovery depend on local durability)");
    }
  } else if (args->in.empty()) {
    return Status::InvalidArgument("--in FILE is required");
  }
  if (args->repl) {
    if (!args->listen) {
      return Status::InvalidArgument(
          "--repl needs --listen (followers connect to that port)");
    }
    if (args->journal.empty() || args->checkpoint_dir.empty()) {
      return Status::InvalidArgument(
          "--repl needs --journal and --checkpoint-dir (they are what gets "
          "shipped)");
    }
  }
  if (args->checkpoint_every > 0 && args->checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "--checkpoint-every needs --checkpoint-dir");
  }
  if (args->rebalance_every >= 0 && args->shards < 2) {
    return Status::InvalidArgument(
        "--rebalance-every needs --shards >= 2 (one shard cannot skew)");
  }
  return Status::OK();
}

void Respond(const JsonWriter& writer) {
  std::fputs(writer.Finish().c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

/// The stdio front end: one JSONL request per stdin line, one response per
/// stdout line, until EOF or a shutdown command.
void RunStdioLoop(const CommandDispatcher& dispatcher) {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    const DispatchOutcome outcome = dispatcher.Dispatch(line);
    if (outcome.shutdown) break;  // the post-drain bye line acknowledges
    std::fputs(outcome.response.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }
}

/// The socket front end: runs the net server until a client's shutdown
/// command or SIGINT/SIGTERM.
void RunNetServer(net::NetServer* server) {
  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!server->stopped()) {
    if (g_signal != 0) {
      server->Stop();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server->Stop();  // idempotent; joins everything when shutdown came in-band
}

int Main(int argc, char** argv) {
  Args args;
  const Status parsed = ParseArgs(argc, argv, &args);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.message().c_str());
    return Usage();
  }

  // Fault injection (docs/fault-injection.md): the --faults flag and the
  // GEPC_FAULTS environment variable both arm named failure points; a bad
  // spec is a usage error, not a silently-unfaulted run.
  if (!args.faults.empty()) {
    const Status armed = fault::ArmFromSpec(args.faults);
    if (!armed.ok()) {
      std::fprintf(stderr, "error: --faults: %s\n",
                   armed.ToString().c_str());
      return Usage();
    }
  }
  const Status env_armed = fault::ArmFromEnv();
  if (!env_armed.ok()) return Fail(env_armed.ToString());

  // Span recording is opt-in (it buffers every span until shutdown); the
  // metrics registry is always live.
  if (!args.trace_file.empty()) obs::TraceRecorder::Global().Start();

  // Which role this process serves; shared by the dispatcher (write
  // redirects, stats), the ready line, and a Follower's promotion flip.
  ServeRole role;
  role.net_compress = args.net_compress;

  // The service is owned either directly (primary) or by the follower that
  // replays into it. Destruction order matters at every return below:
  // server first (declared last), then the replication source (its Stop
  // detaches the commit hook), then the service's owner.
  std::unique_ptr<PlanningService> owned_service;
  std::unique_ptr<repl::Follower> follower;
  PlanningService* service = nullptr;

  if (args.follow) {
    repl::FollowerOptions follow_options;
    follow_options.primary_host = args.follow_host;
    follow_options.primary_port = args.follow_port;
    follow_options.journal_path = args.journal;
    follow_options.checkpoint_dir = args.checkpoint_dir;
    follow_options.queue_capacity = static_cast<size_t>(args.queue_capacity);
    follow_options.checkpoint_every = args.checkpoint_every;
    follow_options.checkpoint_retain = args.checkpoint_retain;
    follow_options.heartbeat_timeout_ms = args.repl_timeout_ms;
    follow_options.promote_after_ms = args.repl_promote_after_ms;
    auto started = repl::Follower::Start(std::move(follow_options), &role);
    if (!started.ok()) return Fail(started.status().ToString());
    follower = std::move(*started);
    service = follower->service();
  } else {
    auto instance = LoadInstanceFromFile(args.in);
    if (!instance.ok()) return Fail(instance.status().ToString());

    Plan plan;
    if (!args.plan.empty()) {
      auto loaded = LoadPlanFromFile(args.plan);
      if (!loaded.ok()) return Fail(loaded.status().ToString());
      plan = *std::move(loaded);
    } else {
      ShardedGepcOptions solve_options;
      solve_options.threads = args.threads;
      solve_options.shards = args.shards;
      solve_options.gepc.algorithm = AlgorithmFromName(args.algorithm);
      auto solved = SolveSharded(*instance, solve_options);
      if (!solved.ok()) return Fail(solved.status().ToString());
      plan = std::move(solved->plan);
    }

    ServiceOptions options;
    options.journal_path = args.journal;
    options.queue_capacity = static_cast<size_t>(args.queue_capacity);
    options.checkpoint_dir = args.checkpoint_dir;
    options.checkpoint_every = args.checkpoint_every;
    options.checkpoint_retain = args.checkpoint_retain;
    if (args.rebalance_every >= 0) {
      options.rebalance_shards = args.shards;
      options.rebalance_every = args.rebalance_every;
      options.rebalance_skew = args.rebalance_skew;
    }

    auto created =
        args.recover
            ? PlanningService::Recover(*std::move(instance), std::move(plan),
                                       std::move(options))
            : PlanningService::Create(*std::move(instance), std::move(plan),
                                      std::move(options));
    if (!created.ok()) return Fail(created.status().ToString());
    owned_service = std::move(*created);
    service = owned_service.get();
  }

  DispatchDefaults defaults;
  defaults.threads = args.threads;
  defaults.shards = args.shards;
  defaults.algorithm = AlgorithmFromName(args.algorithm);
  const CommandDispatcher dispatcher(service, defaults, &role);

  // The socket front end is constructed before the ready line so the line
  // can carry the actually-bound (possibly ephemeral) port.
  std::unique_ptr<repl::ReplicationSource> source;
  std::unique_ptr<net::NetServer> server;
  if (args.listen) {
    net::NetServerOptions net_options;
    net_options.host = args.listen_host;
    net_options.port = args.listen_port;
    net_options.max_connections = args.max_connections;
    net_options.read_workers = args.net_read_workers;
    net_options.op_workers = args.net_op_workers;
    net_options.op_queue_capacity = static_cast<size_t>(args.net_queue);
    net_options.compress = args.net_compress;

    const auto snap = service->snapshot();
    JsonWriter welcome;
    welcome.Add("users", snap->instance->num_users());
    welcome.Add("events", snap->instance->num_events());
    std::string welcome_fields = welcome.Finish();
    // Strip the braces: the server splices these fields into its Welcome
    // object.
    welcome_fields = welcome_fields.substr(1, welcome_fields.size() - 2);

    server = std::make_unique<net::NetServer>(
        std::move(net_options),
        [&dispatcher](const std::string& request) {
          const DispatchOutcome outcome = dispatcher.Dispatch(request);
          return net::HandlerResult{outcome.response, outcome.shutdown};
        },
        [](const std::string& request) {
          // Route snapshot-only commands to the read pool; everything else
          // (including unparseable requests, whose error the op worker
          // renders) rides the op pool.
          return ClassifyCommand(ExtractCmdHint(request)) != CommandKind::kRead;
        },
        welcome_fields);
    if (args.repl) {
      repl::ReplicationSourceOptions source_options;
      source_options.journal_path = args.journal;
      source_options.checkpoint_dir = args.checkpoint_dir;
      source_options.heartbeat_interval_ms = args.repl_heartbeat_ms;
      source = std::make_unique<repl::ReplicationSource>(service,
                                                         source_options);
      const Status attached = source->Attach(server.get());
      if (!attached.ok()) return Fail(attached.ToString());
    }
    const Status started = server->Start();
    if (!started.ok()) return Fail(started.ToString());
  }

  {
    const auto snap = service->snapshot();
    JsonWriter ready;
    ready.Add("ok", true);
    ready.Add("ready", true);
    ready.Add("role", role.follower.load(std::memory_order_acquire)
                          ? "follower"
                          : "primary");
    if (args.follow) ready.Add("primary", role.primary);
    ready.Add("net_compress", args.net_compress);
    ready.Add("users", snap->instance->num_users());
    ready.Add("events", snap->instance->num_events());
    ready.Add("utility", snap->total_utility);
    ready.Add("assignments", snap->total_assignments);
    ready.Add("recovered_ops", snap->version);
    if (args.recover) {
      const ServiceStats stats = service->Stats();
      ready.Add("recovered_from_checkpoint", stats.recovered_from_checkpoint);
      ready.Add("recovery_ops_replayed", stats.recovery_ops_replayed);
    }
    if (server != nullptr) {
      ready.Add("listen", args.listen_host);
      ready.Add("port", server->port());
    }
    if (args.repl) ready.Add("repl", true);
    Respond(ready);
  }

  if (server != nullptr) {
    RunNetServer(server.get());
  } else {
    RunStdioLoop(dispatcher);
  }

  // Teardown order: stop replication before the sockets/service it bridges.
  if (source != nullptr) source->Stop();
  if (follower != nullptr) follower->Stop();
  service->Drain();
  if (!args.metrics_file.empty()) {
    std::ofstream out(args.metrics_file, std::ios::trunc);
    if (out) out << RenderAllMetricsText(*service);
    if (!out) {
      std::fprintf(stderr, "error: cannot write metrics file %s\n",
                   args.metrics_file.c_str());
    }
  }
  service->Shutdown();
  if (!args.trace_file.empty()) {
    obs::TraceRecorder::Global().Stop();
    const Status written =
        obs::TraceRecorder::Global().WriteChromeTrace(args.trace_file);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    }
  }
  JsonWriter bye;
  bye.Add("ok", true);
  bye.Add("shutdown", true);
  bye.Add("version", service->snapshot()->version);
  Respond(bye);
  return 0;
}

}  // namespace serve
}  // namespace gepc

int main(int argc, char** argv) { return gepc::serve::Main(argc, argv); }
