// gepc_cli — command-line front end for the library, operating on the
// GEPC1 instance / GPLN1 plan text formats (see src/data/io.h).
//
//   gepc_cli generate --users N --events M [--seed S] [--xi X] [--eta E]
//                     [--conflict R] [--fee F] --out inst.gepc
//   gepc_cli stats    --in inst.gepc
//   gepc_cli solve    --in inst.gepc [--algorithm greedy|gap|regret]
//                     [--no-topup] [--threads N] [--shards K]
//                     [--plan-out plan.gpln] [--metrics[=FILE]]
//                     [--trace FILE]
//   gepc_cli validate --in inst.gepc --plan plan.gpln
//   gepc_cli itinerary --in inst.gepc --plan plan.gpln [--user N]
//   gepc_cli apply    --in inst.gepc --plan plan.gpln --op SPEC [--op SPEC...]
//                     [--ops-file trace.gops] [--plan-out out.gpln] [--reorder]
//                     [--shards K [--rebalance-every N] [--rebalance-skew X]]
//   gepc_cli schedule --users N --drafts D --candidates C [--seed S]
//                     [--lambda L] [--degree K] [--threads T]
//                     [--restarts R] [--passes P] [--exhaustive]
//                     [--no-memoize]
//   gepc_cli sim      --scenario scheduling|affinity|mixed [--days N]
//                     [--seed S] [--users N] [--events M] [--resolve]
//   gepc_cli ckpt-inspect --ckpt file.gckp | --dir ckpt_dir
//   gepc_cli journal-inspect --journal file.gops
//
//   SPEC is one of:
//     eta:EVENT:VALUE     xi:EVENT:VALUE       time:EVENT:START:END
//     budget:USER:VALUE   mu:USER:EVENT:VALUE  loc:EVENT:X:Y

#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/flags.h"
#include "core/feasibility.h"
#include "core/itinerary.h"
#include "core/plan_diff.h"
#include "data/generator.h"
#include "data/io.h"
#include "fault/fault.h"
#include "gepc/solver.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "iep/batch.h"
#include "data/friendship.h"
#include "sched/schedule.h"
#include "shard/rebalance.h"
#include "shard/sharded_solver.h"
#include "sim/scenarios.h"
#include "iep/op_spec.h"
#include "iep/planner.h"
#include "iep/trace.h"
#include "service/dispatch.h"
#include "service/journal.h"

namespace gepc {
namespace cli {

constexpr char kUsage[] =
    "usage: gepc_cli <command> [options]\n"
    "\n"
    "  generate  --users N --events M --out inst.gepc\n"
    "            [--seed S] [--xi X] [--eta E] [--conflict R] [--fee F]\n"
    "  stats     --in inst.gepc\n"
    "  solve     --in inst.gepc [--algorithm greedy|gap|regret]\n"
    "            [--no-topup] [--threads N] [--shards K]\n"
    "            [--plan-out plan.gpln] [--faults SPEC]\n"
    "            [--metrics[=FILE]] [--trace FILE]\n"
    "  validate  --in inst.gepc --plan plan.gpln\n"
    "  itinerary --in inst.gepc --plan plan.gpln [--user N]\n"
    "  apply     --in inst.gepc --plan plan.gpln --op SPEC [--op SPEC...]\n"
    "            [--ops-file trace.gops] [--plan-out out.gpln] [--reorder]\n"
    "            [--shards K [--rebalance-every N] [--rebalance-skew X]]\n"
    "  schedule  --users N --drafts D --candidates C [--seed S]\n"
    "            [--lambda L] [--degree K] [--threads T] [--restarts R]\n"
    "            [--passes P] [--exhaustive] [--no-memoize] [--faults SPEC]\n"
    "  sim       --scenario scheduling|affinity|mixed [--days N] [--seed S]\n"
    "            [--users N] [--events M] [--resolve] [--faults SPEC]\n"
    "  ckpt-inspect --ckpt file.gckp | --dir ckpt_dir\n"
    "  journal-inspect --journal file.gops\n"
    "\n"
    "  SPEC is one of:\n"
    "    eta:EVENT:VALUE     xi:EVENT:VALUE       time:EVENT:START:END\n"
    "    budget:USER:VALUE   mu:USER:EVENT:VALUE  loc:EVENT:X:Y\n"
    "\n"
    "(see docs/cli.md; the online service front end is gepc_serve)\n";

constexpr int kMaxCount = 1'000'000;

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

/// A bad flag or flag value is a usage error: message + usage text, exit 64.
int UsageFail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n\n%s", message.c_str(), kUsage);
  return 64;
}

/// Parses a command's flags (the arguments after the command word), then
/// arms fault injection (docs/fault-injection.md) from `faults` — the
/// command's --faults value, when it has that flag — and from the
/// GEPC_FAULTS environment variable; a bad spec is a usage error. Returns 0,
/// or the usage exit code.
int ParseFlags(FlagTable* flags, int argc, char** argv,
               const std::string* faults = nullptr) {
  const Status parsed = flags->Parse(argc, argv, /*first=*/2);
  if (!parsed.ok()) return UsageFail(parsed.message());
  if (faults != nullptr && !faults->empty()) {
    const Status armed = fault::ArmFromSpec(*faults);
    if (!armed.ok()) return UsageFail("--faults: " + armed.ToString());
  }
  const Status env_armed = fault::ArmFromEnv();
  if (!env_armed.ok()) {
    return UsageFail("GEPC_FAULTS: " + env_armed.ToString());
  }
  return 0;
}

int CmdGenerate(int argc, char** argv) {
  GeneratorConfig config;
  config.mean_xi = 3.0;
  config.mean_eta = 10.0;
  std::string out;
  FlagTable flags = {
      Flag::Int("users", &config.num_users, 1, kMaxCount),
      Flag::Int("events", &config.num_events, 1, kMaxCount),
      Flag::Uint64("seed", &config.seed),
      Flag::Double("xi", &config.mean_xi, 0.0),
      Flag::Double("eta", &config.mean_eta, 1.0),
      Flag::Double("conflict", &config.conflict_ratio, 0.0, 1.0),
      Flag::Double("fee", &config.mean_fee, 0.0),
      Flag::String("out", &out),
  };
  if (const int code = ParseFlags(&flags, argc, argv)) return code;
  if (out.empty()) return Fail("generate needs --out FILE");

  auto instance = GenerateInstance(config);
  if (!instance.ok()) return Fail(instance.status().ToString());
  const Status saved = SaveInstanceToFile(*instance, out);
  if (!saved.ok()) return Fail(saved.ToString());
  std::printf("wrote %s: %d users, %d events, sum xi = %lld\n", out.c_str(),
              instance->num_users(), instance->num_events(),
              static_cast<long long>(instance->TotalLowerBound()));
  return 0;
}

int CmdStats(int argc, char** argv) {
  std::string in;
  FlagTable flags = {Flag::String("in", &in)};
  if (const int code = ParseFlags(&flags, argc, argv)) return code;
  auto instance = LoadInstanceFromFile(in);
  if (!instance.ok()) return Fail(instance.status().ToString());
  int64_t positive_pairs = 0;
  for (int i = 0; i < instance->num_users(); ++i) {
    for (int j = 0; j < instance->num_events(); ++j) {
      if (instance->utility(i, j) > 0.0) ++positive_pairs;
    }
  }
  std::printf("users:            %d\n", instance->num_users());
  std::printf("events:           %d\n", instance->num_events());
  std::printf("sum of xi:        %lld\n",
              static_cast<long long>(instance->TotalLowerBound()));
  std::printf("conflict ratio:   %.3f\n",
              instance->conflicts().ConflictRatio());
  std::printf("conflict pairs:   %lld\n",
              static_cast<long long>(instance->conflicts().conflict_pair_count()));
  std::printf("positive (u,e):   %lld (%.1f%% of matrix)\n",
              static_cast<long long>(positive_pairs),
              100.0 * static_cast<double>(positive_pairs) /
                  (static_cast<double>(instance->num_users()) *
                   static_cast<double>(instance->num_events())));
  return 0;
}

int CmdSolve(int argc, char** argv) {
  std::string in;
  std::string algorithm = "greedy";
  bool no_topup = false;
  ShardedGepcOptions options;
  std::string plan_out;
  std::string faults;
  std::string metrics_file;
  std::string trace_file;
  FlagTable flags = {
      Flag::String("in", &in),
      Flag::Enum("algorithm", &algorithm, {"greedy", "gap", "regret"}),
      Flag::Bool("no-topup", &no_topup),
      Flag::Int("threads", &options.threads, 1, kMaxCount),
      Flag::Int("shards", &options.shards, 1, kMaxCount),
      Flag::String("plan-out", &plan_out),
      Flag::String("faults", &faults),
      Flag::OptionalValue("metrics", &metrics_file),
      Flag::String("trace", &trace_file),
  };
  if (const int code = ParseFlags(&flags, argc, argv, &faults)) return code;
  options.gepc.algorithm = AlgorithmFromName(algorithm);
  options.gepc.run_topup = !no_topup;
  if (!trace_file.empty()) obs::TraceRecorder::Global().Start();

  auto instance = LoadInstanceFromFile(in);
  if (!instance.ok()) return Fail(instance.status().ToString());

  ShardedGepcStats stats;
  auto result = SolveSharded(*instance, options, &stats);
  if (!result.ok()) return Fail(result.status().ToString());
  std::printf("algorithm:        %s\n",
              GepcAlgorithmName(options.gepc.algorithm));
  std::printf("total utility:    %.4f\n", result->total_utility);
  std::printf("assignments:      %lld\n",
              static_cast<long long>(result->plan.TotalAssignments()));
  std::printf("events below xi:  %d\n", result->events_below_lower_bound);
  if (options.shards > 1) {
    std::printf("shards:           %d (%d interior / %d boundary users)\n",
                stats.shards, stats.interior_users, stats.boundary_users);
    std::printf("merge added:      %d flow + %d repair + %d topup\n",
                stats.merge_flow_assigned, stats.lower_bound_repair_added,
                stats.merge_topup_added);
  }

  if (!plan_out.empty()) {
    const Status saved = SavePlanToFile(result->plan, plan_out);
    if (!saved.ok()) return Fail(saved.ToString());
    std::printf("plan written to:  %s\n", plan_out.c_str());
  }

  if (!trace_file.empty()) {
    obs::TraceRecorder::Global().Stop();
    const Status written =
        obs::TraceRecorder::Global().WriteChromeTrace(trace_file);
    if (!written.ok()) return Fail(written.ToString());
    std::printf("trace written to: %s (%zu spans)\n", trace_file.c_str(),
                obs::TraceRecorder::Global().span_count());
  }
  if (flags.IsSet("metrics")) {
    const std::string text = obs::Registry::Global().RenderPrometheusText();
    if (metrics_file.empty()) {
      std::printf("--- metrics ---\n%s", text.c_str());
    } else {
      std::FILE* out = std::fopen(metrics_file.c_str(), "w");
      if (out == nullptr) {
        return Fail("cannot write metrics file " + metrics_file);
      }
      std::fputs(text.c_str(), out);
      std::fclose(out);
      std::printf("metrics written:  %s\n", metrics_file.c_str());
    }
  }
  return 0;
}

int CmdValidate(int argc, char** argv) {
  std::string in;
  std::string plan_path;
  FlagTable flags = {Flag::String("in", &in), Flag::String("plan", &plan_path)};
  if (const int code = ParseFlags(&flags, argc, argv)) return code;
  auto instance = LoadInstanceFromFile(in);
  if (!instance.ok()) return Fail(instance.status().ToString());
  auto plan = LoadPlanFromFile(plan_path);
  if (!plan.ok()) return Fail(plan.status().ToString());

  const Status full = ValidatePlan(*instance, *plan);
  if (full.ok()) {
    std::printf("plan is feasible (all four GEPC constraints)\n");
    std::printf("total utility: %.4f\n", plan->TotalUtility(*instance));
    return 0;
  }
  ValidationOptions lenient;
  lenient.check_lower_bounds = false;
  const Status user_side = ValidatePlan(*instance, *plan, lenient);
  if (user_side.ok()) {
    std::printf("plan satisfies constraints 1-3; lower bounds violated:\n");
  }
  std::printf("violation: %s\n", full.ToString().c_str());
  return 2;
}

int CmdItinerary(int argc, char** argv) {
  std::string in;
  std::string plan_path;
  int user = 0;
  FlagTable flags = {
      Flag::String("in", &in),
      Flag::String("plan", &plan_path),
      Flag::Int("user", &user, 0, std::numeric_limits<int>::max()),
  };
  if (const int code = ParseFlags(&flags, argc, argv)) return code;
  auto instance = LoadInstanceFromFile(in);
  if (!instance.ok()) return Fail(instance.status().ToString());
  auto plan = LoadPlanFromFile(plan_path);
  if (!plan.ok()) return Fail(plan.status().ToString());
  if (flags.IsSet("user")) {
    if (user >= instance->num_users()) return Fail("--user out of range");
    std::printf("%s", BuildItinerary(*instance, *plan, user).ToString().c_str());
    return 0;
  }
  for (const Itinerary& itinerary : BuildAllItineraries(*instance, *plan)) {
    std::printf("%s\n", itinerary.ToString().c_str());
  }
  return 0;
}

int CmdApply(int argc, char** argv) {
  std::string in;
  std::string plan_path;
  std::vector<std::string> specs;
  std::string ops_file;
  std::string plan_out;
  bool reorder = false;
  int shards = 1;
  int rebalance_every = 0;
  double rebalance_skew = 2.0;
  FlagTable flags = {
      Flag::String("in", &in),
      Flag::String("plan", &plan_path),
      Flag::Repeated("op", &specs),
      Flag::String("ops-file", &ops_file),
      Flag::String("plan-out", &plan_out),
      Flag::Bool("reorder", &reorder),
      Flag::Int("shards", &shards, 1, kMaxCount),
      Flag::Int("rebalance-every", &rebalance_every, 0, kMaxCount),
      Flag::Double("rebalance-skew", &rebalance_skew, 0.0),
  };
  if (const int code = ParseFlags(&flags, argc, argv)) return code;
  if (shards < 2 &&
      (flags.IsSet("rebalance-every") || flags.IsSet("rebalance-skew"))) {
    return UsageFail("--rebalance-every/--rebalance-skew need --shards >= 2");
  }
  if (shards >= 2 && reorder) {
    return UsageFail(
        "--reorder cannot be combined with --shards: shard tracking "
        "replays ops in submission order");
  }

  auto instance = LoadInstanceFromFile(in);
  if (!instance.ok()) return Fail(instance.status().ToString());
  auto plan = LoadPlanFromFile(plan_path);
  if (!plan.ok()) return Fail(plan.status().ToString());
  std::vector<AtomicOp> ops;
  if (!ops_file.empty()) {
    auto loaded = LoadOpsFromFile(ops_file);
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    ops = *std::move(loaded);
  }
  for (const std::string& spec : specs) {
    auto op = ParseOpSpec(spec);
    if (!op.ok()) return Fail(op.status().ToString());
    ops.push_back(*std::move(op));
  }
  if (ops.empty()) {
    return Fail("apply needs --op SPEC or --ops-file FILE");
  }

  auto planner = IncrementalPlanner::Create(*std::move(instance),
                                            *std::move(plan));
  if (!planner.ok()) return Fail(planner.status().ToString());
  const Plan before_plan = planner->plan();
  const double before = before_plan.TotalUtility(planner->instance());

  BatchResult batch;
  ShardTrackerStats shard_stats;
  double final_skew = 0.0;
  size_t boundary_users = 0;
  if (shards >= 2) {
    // ApplyBatch cannot interleave tracker maintenance between ops, so the
    // sharded path replays the sequential loop here: one Apply per op,
    // stopping at the first validation failure (prior ops stay applied),
    // with one tracker step (route, migrate, charge) after each success.
    ShardTracker tracker(planner->instance(), shards);
    for (const AtomicOp& op : ops) {
      const auto started = std::chrono::steady_clock::now();
      auto step = planner->Apply(op);
      if (!step.ok()) return Fail(step.status().ToString());
      const Status migrated = tracker.TrackAppliedOp(
          planner->instance(), op,
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - started)
              .count());
      if (!migrated.ok()) return Fail(migrated.ToString());
      batch.negative_impact += step->negative_impact;
      ++batch.ops_applied;
      if (rebalance_every > 0 && batch.ops_applied % rebalance_every == 0 &&
          tracker.Skew() >= rebalance_skew) {
        auto report = tracker.Rebalance(planner->instance());
        if (!report.ok()) return Fail(report.status().ToString());
      }
    }
    batch.total_utility = planner->plan().TotalUtility(planner->instance());
    batch.events_below_lower_bound =
        planner->plan().CountEventsBelowLowerBound(planner->instance());
    shard_stats = tracker.stats();
    final_skew = tracker.Skew();
    boundary_users = tracker.partition().boundary_users.size();
  } else {
    auto applied = ApplyBatch(&*planner, std::move(ops),
                              reorder ? BatchMode::kReordered
                                           : BatchMode::kSequential);
    if (!applied.ok()) return Fail(applied.status().ToString());
    batch = *std::move(applied);
  }

  std::printf("ops applied:      %d\n", batch.ops_applied);
  std::printf("utility:          %.4f -> %.4f\n", before,
              batch.total_utility);
  std::printf("negative impact:  %lld\n",
              static_cast<long long>(batch.negative_impact));
  std::printf("events below xi:  %d\n", batch.events_below_lower_bound);
  if (reorder) {
    std::printf("final re-offer:   +%d attendances\n",
                batch.added_by_final_reoffer);
  }
  if (shards >= 2) {
    std::printf("shards:           %d\n", shards);
    std::printf("migrations:       %llu (%llu users reclassified, "
                "%llu events re-homed)\n",
                static_cast<unsigned long long>(shard_stats.migrations),
                static_cast<unsigned long long>(
                    shard_stats.users_reclassified),
                static_cast<unsigned long long>(shard_stats.events_moved));
    std::printf("full rebuilds:    %llu\n",
                static_cast<unsigned long long>(shard_stats.full_rebuilds));
    std::printf("rebalances:       %llu\n",
                static_cast<unsigned long long>(shard_stats.rebalances));
    std::printf("final skew:       %.3f (%zu boundary users)\n", final_skew,
                boundary_users);
  }
  std::printf("changed plans:\n%s",
              DiffPlans(planner->instance(), before_plan, planner->plan())
                  .ToString()
                  .c_str());

  if (!plan_out.empty()) {
    const Status saved = SavePlanToFile(planner->plan(), plan_out);
    if (!saved.ok()) return Fail(saved.ToString());
    std::printf("plan written to:  %s\n", plan_out.c_str());
  }
  return 0;
}

/// Prints one checkpoint's header, validity and state summary. A torn or
/// corrupt file is reported (with the exact defect), not a crash — this is
/// the operator's "can I still recover from this?" probe.
int InspectOneCheckpoint(const std::string& path) {
  std::printf("checkpoint:       %s\n", path.c_str());
  auto loaded = LoadCheckpoint(path);
  if (!loaded.ok()) {
    std::printf("valid:            no\n");
    std::printf("defect:           %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("valid:            yes\n");
  std::printf("version:          %llu\n",
              static_cast<unsigned long long>(loaded->version));
  std::printf("users:            %d\n", loaded->instance.num_users());
  std::printf("events:           %d\n", loaded->instance.num_events());
  std::printf("assignments:      %lld\n",
              static_cast<long long>(loaded->plan.TotalAssignments()));
  std::printf("utility:          %.4f\n",
              loaded->plan.TotalUtility(loaded->instance));
  return 0;
}

/// Organizer-side scheduling demo: generate a seeded draft problem, search
/// (or exhaustively enumerate) candidate (slot, venue) configurations with
/// the GEPC solver as attendance oracle, and report the chosen schedule.
int CmdSchedule(int argc, char** argv) {
  ScheduleGenConfig gen;
  ScheduleOptions options;
  double lambda = 0.0;
  int degree = 4;
  bool exhaustive = false;
  bool no_memoize = false;
  std::string faults;
  FlagTable flags = {
      Flag::Int("users", &gen.num_users, 1, kMaxCount),
      Flag::Int("drafts", &gen.num_drafts, 1, kMaxCount),
      Flag::Int("candidates", &gen.candidates_per_draft, 1, kMaxCount),
      Flag::Uint64("seed", &gen.seed),
      Flag::Double("lambda", &lambda, 0.0),
      Flag::Int("degree", &degree, 1, kMaxCount),
      Flag::Int("threads", &options.threads, 1, kMaxCount),
      Flag::Int("restarts", &options.restarts, 1, kMaxCount),
      Flag::Int("passes", &options.max_passes, 1, kMaxCount),
      Flag::Bool("exhaustive", &exhaustive),
      Flag::Bool("no-memoize", &no_memoize),
      Flag::String("faults", &faults),
  };
  if (const int code = ParseFlags(&flags, argc, argv, &faults)) return code;
  options.seed = gen.seed;
  options.memoize = !no_memoize;

  ScheduleProblem problem = GenerateScheduleProblem(gen);
  FriendshipGraph friends;
  if (lambda > 0.0) {
    FriendshipConfig fc;
    fc.mean_degree = static_cast<double>(degree);
    fc.seed = gen.seed + 7;
    friends = GenerateFriendshipGraph(problem.users, fc);
    options.affinity.graph = &friends;
    options.affinity.lambda = lambda;
  }

  ScheduleCache cache;
  auto result = exhaustive ? EnumerateSchedule(problem, options, &cache)
                           : SolveSchedule(problem, options, &cache);
  if (!result.ok()) return Fail(result.status().ToString());

  std::printf("mode:             %s\n", exhaustive ? "exhaustive" : "search");
  std::printf("drafts:           %d x %d candidates\n", gen.num_drafts,
              gen.candidates_per_draft);
  for (size_t d = 0; d < result->choice.size(); ++d) {
    const int c = result->choice[d];
    if (c < 0) {
      std::printf("  draft %-3zu       unscheduled\n", d);
      continue;
    }
    const ScheduleCandidate& cand = problem.drafts[d].candidates[c];
    std::printf("  draft %-3zu       candidate %d: slot %s, venue "
                "(%.1f, %.1f), capacity %d\n",
                d, c, FormatInterval(cand.slot).c_str(), cand.venue.x,
                cand.venue.y, cand.capacity);
  }
  std::printf("score:            %.4f\n", result->score);
  std::printf("total utility:    %.4f\n", result->total_utility);
  if (lambda > 0.0) {
    std::printf("affinity utility: %.4f (lambda %.3f)\n",
                result->affinity_utility, lambda);
  }
  std::printf("attendance:       %d\n", result->attendance);
  std::printf("oracle calls:     %lld (%lld cache hits)\n",
              static_cast<long long>(result->stats.oracle_calls),
              static_cast<long long>(result->stats.cache_hits));
  if (result->stats.degraded_candidates > 0 ||
      result->stats.skipped_candidates > 0) {
    std::printf("faults:           %lld degraded, %lld skipped\n",
                static_cast<long long>(result->stats.degraded_candidates),
                static_cast<long long>(result->stats.skipped_candidates));
  }
  std::printf("search:           %lld swaps, %d passes, %d restarts\n",
              static_cast<long long>(result->stats.swap_moves),
              result->stats.passes, result->stats.restarts);
  return 0;
}

/// Named multi-day scenarios (src/sim/scenarios.h): the preset picks the
/// workload shape; --days/--users/--events/--resolve override on top.
int CmdSim(int argc, char** argv) {
  ScenarioPreset preset = ScenarioPreset::kMixed;  // --scenario is required
  uint64_t seed = 42;
  int days = 0;
  int users = 0;
  int events = 0;
  bool resolve = false;
  std::string faults;
  FlagTable flags = {
      Flag::Custom("scenario",
                   [&preset](const std::string& name) {
                     return ParseScenarioPreset(name, &preset)
                                ? Status::OK()
                                : Status::InvalidArgument(
                                      "expected scheduling|affinity|mixed, "
                                      "got '" + name + "'");
                   }),
      Flag::Int("days", &days, 1, kMaxCount),
      Flag::Uint64("seed", &seed),
      Flag::Int("users", &users, 1, kMaxCount),
      Flag::Int("events", &events, 1, kMaxCount),
      Flag::Bool("resolve", &resolve),
      Flag::String("faults", &faults),
  };
  if (const int code = ParseFlags(&flags, argc, argv, &faults)) return code;
  if (!flags.IsSet("scenario")) {
    return UsageFail("sim needs --scenario scheduling|affinity|mixed");
  }
  SimulationConfig config = MakeScenarioConfig(preset, seed);
  if (flags.IsSet("days")) config.num_days = days;
  if (flags.IsSet("users")) config.base.num_users = users;
  if (flags.IsSet("events")) config.base.num_events = events;
  config.incremental = !resolve;

  auto result = RunSimulation(config);
  if (!result.ok()) return Fail(result.status().ToString());

  std::printf("scenario:         %s (%s)\n", ScenarioPresetName(preset),
              config.incremental ? "incremental" : "re-solve");
  std::printf("%5s %6s %12s %12s %9s %9s\n", "day", "ops", "utility",
              "affinity", "below-xi", "sec");
  int total_ops = 0;
  for (const DayMetrics& day : result->days) {
    total_ops += day.ops;
    std::printf("%5d %6d %12.4f %12.4f %9d %9.3f\n", day.day, day.ops,
                day.total_utility, day.affinity_utility,
                day.events_below_lower_bound, day.plan_seconds);
  }
  std::printf("final utility:    %.4f\n", result->final_utility);
  std::printf("final affinity:   %.4f\n", result->final_affinity_utility);
  std::printf("total ops:        %d\n", total_ops);
  std::printf("plan seconds:     %.3f\n", result->total_plan_seconds);
  return 0;
}

int CmdCkptInspect(int argc, char** argv) {
  std::string ckpt;
  std::string dir;
  FlagTable flags = {Flag::String("ckpt", &ckpt), Flag::String("dir", &dir)};
  if (const int code = ParseFlags(&flags, argc, argv)) return code;
  if (ckpt.empty() == dir.empty()) {
    return UsageFail("ckpt-inspect needs exactly one of --ckpt or --dir");
  }
  if (!ckpt.empty()) return InspectOneCheckpoint(ckpt);

  auto refs = ListCheckpoints(dir);
  if (!refs.ok()) return Fail(refs.status().ToString());
  if (refs->empty()) {
    std::printf("no checkpoints in %s\n", dir.c_str());
    return 0;
  }
  // Newest first, matching the order recovery tries them in.
  int defects = 0;
  for (size_t i = 0; i < refs->size(); ++i) {
    if (i > 0) std::printf("\n");
    if (InspectOneCheckpoint((*refs)[i].path) != 0) ++defects;
  }
  std::printf("\ncheckpoints:      %zu (%d defective)\n", refs->size(),
              defects);
  return defects == 0 ? 0 : 1;
}

/// Prints a GOPS1 journal's base header, row count, sequence span and torn
/// tail. Mirrors ckpt-inspect: the operator's "what survived the crash?"
/// probe. A missing file or interior corruption is a defect (exit 1); a
/// torn tail alone is not — recovery discards it by design — but it is
/// reported so the operator knows a crash interrupted an append.
int CmdJournalInspect(int argc, char** argv) {
  std::string path;
  FlagTable flags = {Flag::String("journal", &path)};
  if (const int code = ParseFlags(&flags, argc, argv)) return code;
  if (path.empty()) return UsageFail("journal-inspect needs --journal FILE");
  std::printf("journal:          %s\n", path.c_str());
  auto scan = ScanJournalFile(path);
  if (!scan.ok()) {
    std::printf("valid:            no\n");
    std::printf("defect:           %s\n", scan.status().ToString().c_str());
    return 1;
  }
  std::printf("valid:            yes\n");
  std::printf("base sequence:    %llu%s\n",
              static_cast<unsigned long long>(scan->base_sequence),
              scan->base_sequence > 0 ? " (compacted)" : "");
  std::printf("committed rows:   %zu\n", scan->ops.size());
  if (!scan->ops.empty()) {
    std::printf("sequence span:    %llu..%llu\n",
                static_cast<unsigned long long>(scan->base_sequence + 1),
                static_cast<unsigned long long>(scan->base_sequence +
                                                scan->ops.size()));
  }
  std::printf("committed bytes:  %lld\n",
              static_cast<long long>(scan->committed_bytes));
  std::printf("torn bytes:       %lld%s\n",
              static_cast<long long>(scan->torn_bytes),
              scan->torn_bytes > 0 ? " (torn tail: crash mid-append; "
                                     "recovery discards it)"
                                   : "");
  return 0;
}

int Main(int argc, char** argv) {
  const Result<std::string> command = CommandWord(argc, argv);
  if (!command.ok()) return UsageFail(command.status().message());
  if (*command == "generate") return CmdGenerate(argc, argv);
  if (*command == "stats") return CmdStats(argc, argv);
  if (*command == "solve") return CmdSolve(argc, argv);
  if (*command == "validate") return CmdValidate(argc, argv);
  if (*command == "apply") return CmdApply(argc, argv);
  if (*command == "itinerary") return CmdItinerary(argc, argv);
  if (*command == "schedule") return CmdSchedule(argc, argv);
  if (*command == "sim") return CmdSim(argc, argv);
  if (*command == "ckpt-inspect") return CmdCkptInspect(argc, argv);
  if (*command == "journal-inspect") return CmdJournalInspect(argc, argv);
  return UsageFail("unknown command '" + *command + "'");
}

}  // namespace cli
}  // namespace gepc

int main(int argc, char** argv) { return gepc::cli::Main(argc, argv); }
