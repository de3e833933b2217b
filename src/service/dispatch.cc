#include "service/dispatch.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "common/status.h"
#include "core/itinerary.h"
#include "data/friendship.h"
#include "data/io.h"
#include "fault/fault.h"
#include "iep/op_spec.h"
#include "obs/metrics.h"
#include "sched/schedule.h"
#include "service/jsonl.h"
#include "service/metrics.h"

namespace gepc {
namespace {

/// Copies the request's optional "id" correlation field (string or number)
/// into the response, first so it is cheap for clients to find.
void EchoRequestId(const JsonObject& request, JsonWriter* writer) {
  auto it = request.find("id");
  if (it == request.end()) return;
  if (it->second.type == JsonValue::Type::kString) {
    writer->Add("id", it->second.string_value);
  } else if (it->second.type == JsonValue::Type::kNumber) {
    writer->Add("id", it->second.number_value);
  }
}

void FillError(JsonWriter* writer, const std::string& message) {
  writer->Add("ok", false);
  writer->Add("error", message);
}

constexpr int kMaxInt = std::numeric_limits<int>::max();

/// Fetches integer field `key` into *out. The value must be an integral
/// number in [lo, hi]; it is checked as a double before the cast, so an
/// out-of-range value is never converted. Absent counts as invalid.
template <typename Int>
bool GetIntField(const JsonObject& request, const std::string& key, Int lo,
                 Int hi, Int* out, std::string* error) {
  auto it = request.find(key);
  const double value = it == request.end() ? 0.0 : it->second.number_value;
  if (it == request.end() || it->second.type != JsonValue::Type::kNumber ||
      !(value >= static_cast<double>(lo) &&
        value <= static_cast<double>(hi)) ||
      value != std::trunc(value)) {
    *error = "'" + key + "' must be an integer in [" + std::to_string(lo) +
             ", " + std::to_string(hi) + "]";
    return false;
  }
  *out = static_cast<Int>(value);
  return true;
}

bool GetStringField(const JsonObject& request, const std::string& key,
                    std::string* out, std::string* error) {
  auto it = request.find(key);
  if (it == request.end() || it->second.type != JsonValue::Type::kString) {
    *error = "'" + key + "' (string) is required";
    return false;
  }
  *out = it->second.string_value;
  return true;
}

/// One request as the command table's handlers see it. Read handlers take
/// a ReadCall, whose service is const: a kRead command runs on the server's
/// read pool, outside the op queue, so it must not be able to write.
template <typename Service>
struct Call {
  Service* service;
  const JsonObject& request;
  const DispatchDefaults& defaults;
  const ServeRole* role;
  JsonWriter* writer;
  bool shutdown = false;
};
using ReadCall = Call<const PlanningService>;
using WriteCall = Call<PlanningService>;

void HandleApply(WriteCall& c) {
  std::string spec;
  std::string error;
  if (!GetStringField(c.request, "op", &spec, &error)) {
    FillError(c.writer, error);
    return;
  }
  auto op = ParseOpSpec(spec);
  if (!op.ok()) {
    FillError(c.writer, op.status().ToString());
    return;
  }
  auto wait_it = c.request.find("wait");
  const bool wait = wait_it == c.request.end() ||
                    wait_it->second.type != JsonValue::Type::kBool ||
                    wait_it->second.bool_value;
  if (!wait) {
    auto submitted = c.service->TrySubmit(*std::move(op));
    if (submitted.ok()) {
      c.writer->Add("ok", true);
      c.writer->Add("queued", true);
    } else {
      FillError(c.writer, submitted.status().ToString());
    }
    return;
  }
  const ApplyOutcome outcome = c.service->Apply(*std::move(op));
  c.writer->Add("ok", true);
  c.writer->Add("seq", outcome.sequence);
  c.writer->Add("applied", outcome.applied);
  if (outcome.applied) {
    c.writer->Add("dif", outcome.negative_impact);
    c.writer->Add("utility", outcome.total_utility);
    c.writer->Add("below_xi", outcome.events_below_lower_bound);
    if (outcome.added_by_topup > 0) {
      c.writer->Add("added_by_topup", outcome.added_by_topup);
    }
  } else {
    c.writer->Add("error", outcome.error);
  }
}

void HandleQueryUser(ReadCall& c) {
  int user = -1;
  std::string error;
  if (!GetIntField(c.request, "user", 0, kMaxInt, &user, &error)) {
    FillError(c.writer, error);
    return;
  }
  auto itinerary = c.service->QueryUser(user);
  if (!itinerary.ok()) {
    FillError(c.writer, itinerary.status().ToString());
    return;
  }
  std::string stops = "[";
  for (size_t k = 0; k < itinerary->stops.size(); ++k) {
    const ItineraryStop& stop = itinerary->stops[k];
    JsonWriter item;
    item.Add("event", stop.event);
    item.Add("start", stop.time.start);
    item.Add("end", stop.time.end);
    item.Add("travel", stop.travel_from_previous);
    item.Add("fee", stop.fee);
    item.Add("utility", stop.utility);
    if (k > 0) stops += ",";
    stops += item.Finish();
  }
  stops += "]";

  c.writer->Add("ok", true);
  c.writer->Add("user", itinerary->user);
  c.writer->Add("budget", itinerary->budget);
  c.writer->Add("utility", itinerary->total_utility);
  c.writer->Add("travel", itinerary->total_travel);
  c.writer->Add("fees", itinerary->total_fees);
  c.writer->Add("cost", itinerary->total_cost);
  c.writer->Add("within_budget", itinerary->within_budget);
  c.writer->Add("conflict_free", itinerary->conflict_free);
  c.writer->AddRaw("stops", stops);
}

void HandleQueryEvent(ReadCall& c) {
  int event = -1;
  std::string error;
  if (!GetIntField(c.request, "event", 0, kMaxInt, &event, &error)) {
    FillError(c.writer, error);
    return;
  }
  const auto snap = c.service->snapshot();
  if (event < 0 || event >= snap->instance->num_events()) {
    FillError(c.writer, "event " + std::to_string(event) + " outside [0, " +
                          std::to_string(snap->instance->num_events()) + ")");
    return;
  }
  const Event& meta = snap->instance->event(event);
  std::string attendees = "[";
  bool first = true;
  for (const UserId user : snap->plan->attendees_of(event)) {
    if (!first) attendees += ",";
    attendees += std::to_string(user);
    first = false;
  }
  attendees += "]";

  c.writer->Add("ok", true);
  c.writer->Add("event", event);
  c.writer->Add("attendance", snap->plan->attendance(event));
  c.writer->Add("xi", meta.lower_bound);
  c.writer->Add("eta", meta.upper_bound);
  c.writer->Add("start", meta.time.start);
  c.writer->Add("end", meta.time.end);
  c.writer->Add("fee", meta.fee);
  c.writer->AddRaw("attendees", attendees);
}

void HandleStats(ReadCall& c) {
  const ServiceStats stats = c.service->Stats();
  const auto snap = c.service->snapshot();
  c.writer->Add("ok", true);
  // Role surface (docs/replication.md): harnesses read the mode here
  // instead of inferring it from command-line flags.
  const bool follower =
      c.role != nullptr && c.role->follower.load(std::memory_order_acquire);
  c.writer->Add("role", follower ? "follower" : "primary");
  c.writer->Add("net_compress", c.role != nullptr && c.role->net_compress);
  if (follower) c.writer->Add("primary", c.role->primary);
  c.writer->Add("users", snap->instance->num_users());
  c.writer->Add("events", snap->instance->num_events());
  c.writer->Add("ops_submitted", stats.ops_submitted);
  c.writer->Add("ops_applied", stats.ops_applied);
  c.writer->Add("ops_rejected", stats.ops_rejected);
  c.writer->Add("ops_dropped", stats.ops_dropped);
  c.writer->Add("negative_impact_total", stats.negative_impact_total);
  c.writer->Add("queue_depth", stats.queue_depth);
  c.writer->Add("queue_high_water", stats.queue_high_water);
  c.writer->Add("queue_capacity", stats.queue_capacity);
  c.writer->Add("apply_ms_mean", stats.apply_ms_mean);
  c.writer->Add("apply_ms_p50", stats.apply_ms.Quantile(0.50));
  c.writer->Add("apply_ms_p90", stats.apply_ms.Quantile(0.90));
  c.writer->Add("apply_ms_p99", stats.apply_ms.Quantile(0.99));
  c.writer->Add("apply_ms_max", stats.apply_ms.max);
  c.writer->Add("apply_ms_count", stats.apply_ms.count);
  c.writer->Add("apply_ms_exact", stats.apply_ms.exact);
  c.writer->Add("queue_wait_ms_mean", stats.queue_wait_ms.Mean());
  c.writer->Add("queue_wait_ms_p50", stats.queue_wait_ms.Quantile(0.50));
  c.writer->Add("queue_wait_ms_p90", stats.queue_wait_ms.Quantile(0.90));
  c.writer->Add("queue_wait_ms_p99", stats.queue_wait_ms.Quantile(0.99));
  c.writer->Add("queue_wait_ms_max", stats.queue_wait_ms.max);
  c.writer->Add("journal_retries", stats.journal_retries);
  c.writer->Add("journal_bytes", stats.journal_bytes);
  c.writer->Add("journal_base", stats.journal_base_sequence);
  c.writer->Add("journal_compactions", stats.journal_compactions);
  c.writer->Add("snapshots_published", stats.snapshots_published);
  c.writer->Add("checkpoints_published", stats.checkpoints_published);
  c.writer->Add("checkpoint_failures", stats.checkpoint_failures);
  c.writer->Add("last_checkpoint_version", stats.last_checkpoint_version);
  c.writer->Add("last_checkpoint_bytes", stats.last_checkpoint_bytes);
  c.writer->Add("last_checkpoint_age_s", stats.last_checkpoint_age_seconds);
  c.writer->Add("recovered_from_checkpoint", stats.recovered_from_checkpoint);
  c.writer->Add("recovery_ops_replayed", stats.recovery_ops_replayed);
  c.writer->Add("recovery_ms", stats.recovery_ms);
  c.writer->Add("version", stats.snapshot_version);
  c.writer->Add("utility", stats.total_utility);
  c.writer->Add("assignments", stats.total_assignments);
  c.writer->Add("below_xi", stats.events_below_lower_bound);
  c.writer->Add("heap_bytes", stats.heap_bytes);
  c.writer->Add("peak_heap_bytes", stats.peak_heap_bytes);
  c.writer->Add("rss_bytes", stats.rss_bytes);
  c.writer->Add("rebalance_shards", stats.rebalance_shards);
  if (stats.rebalance_shards > 0) {
    c.writer->Add("shard_skew", stats.shard_skew);
    c.writer->Add("shard_boundary_users", stats.shard_boundary_users);
    c.writer->Add("rebalances", stats.rebalances);
    c.writer->Add("rebalance_failures", stats.rebalance_failures);
    c.writer->Add("shard_migrations", stats.shard_migrations);
    c.writer->Add("last_rebalance_version", stats.last_rebalance_version);
  }
}

void HandleMetrics(ReadCall& c) {
  c.writer->Add("ok", true);
  c.writer->Add("format", "prometheus");
  c.writer->Add("metrics", RenderAllMetricsText(*c.service));
}

void HandleFaults(ReadCall& c) {
  // Live fault-point counters (docs/fault-injection.md): which points are
  // armed and how often each has been hit / has fired.
  std::string points = "[";
  bool first = true;
  for (const fault::PointStatus& status :
       fault::Registry::Global().Snapshot()) {
    if (!first) points += ",";
    first = false;
    JsonWriter point;
    point.Add("point", status.point);
    point.Add("armed", status.armed);
    point.Add("hits", status.hits);
    point.Add("fired", status.fired);
    points += point.Finish();
  }
  points += "]";
  c.writer->Add("ok", true);
  c.writer->Add("enabled", fault::Enabled());
  c.writer->AddRaw("points", points);
}

void HandleCheckpoint(WriteCall& c) {
  const CheckpointOutcome outcome = c.service->Checkpoint();
  if (!outcome.published) {
    FillError(c.writer, outcome.error);
    return;
  }
  c.writer->Add("ok", true);
  c.writer->Add("checkpoint", true);
  c.writer->Add("version", outcome.version);
  c.writer->Add("path", outcome.path);
  c.writer->Add("bytes", outcome.bytes);
  c.writer->Add("compacted", outcome.compacted);
}

void HandleSavePlan(WriteCall& c) {
  std::string path;
  std::string error;
  if (!GetStringField(c.request, "path", &path, &error)) {
    FillError(c.writer, error);
    return;
  }
  c.service->Drain();
  const auto snap = c.service->snapshot();
  const Status saved = SavePlanToFile(*snap->plan, path);
  if (!saved.ok()) {
    FillError(c.writer, saved.ToString());
    return;
  }
  c.writer->Add("ok", true);
  c.writer->Add("saved", path);
  c.writer->Add("version", snap->version);
}

void HandleRebuild(WriteCall& c) {
  ShardedGepcOptions options;
  options.threads = c.defaults.threads;
  options.shards = c.defaults.shards;
  options.gepc.algorithm = c.defaults.algorithm;

  // Optional per-request overrides of the front end's defaults.
  std::string error;
  if ((c.request.contains("threads") &&
       !GetIntField(c.request, "threads", 1, kMaxInt, &options.threads,
                    &error)) ||
      (c.request.contains("shards") &&
       !GetIntField(c.request, "shards", 1, kMaxInt, &options.shards,
                    &error))) {
    FillError(c.writer, error);
    return;
  }
  auto alg_it = c.request.find("algorithm");
  if (alg_it != c.request.end()) {
    const bool valid = alg_it->second.type == JsonValue::Type::kString &&
                       (alg_it->second.string_value == "greedy" ||
                        alg_it->second.string_value == "gap" ||
                        alg_it->second.string_value == "regret");
    if (!valid) {
      FillError(c.writer, "'algorithm' must be 'greedy', 'gap' or 'regret'");
      return;
    }
    options.gepc.algorithm = AlgorithmFromName(alg_it->second.string_value);
  }

  const RebuildOutcome outcome = c.service->Rebuild(std::move(options));
  if (!outcome.rebuilt) {
    FillError(c.writer, outcome.error);
    return;
  }
  c.writer->Add("ok", true);
  c.writer->Add("rebuilt", true);
  c.writer->Add("utility", outcome.total_utility);
  c.writer->Add("below_xi", outcome.events_below_lower_bound);
  c.writer->Add("dif", outcome.negative_impact);
  c.writer->Add("shards", outcome.stats.shards);
  c.writer->Add("boundary_users", outcome.stats.boundary_users);
}

void HandleRebalance(WriteCall& c) {
  const RebalanceOutcome outcome = c.service->Rebalance();
  if (!outcome.rebalanced) {
    FillError(c.writer, outcome.error);
    return;
  }
  c.writer->Add("ok", true);
  c.writer->Add("rebalanced", true);
  c.writer->Add("seq", outcome.sequence);
  c.writer->Add("iterations", outcome.report.iterations);
  c.writer->Add("events_moved", outcome.report.events_moved);
  c.writer->Add("users_moved", outcome.report.users_moved);
  c.writer->Add("skew_before", outcome.report.skew_before);
  c.writer->Add("skew_after", outcome.report.skew_after);
}

/// What-if scheduling over the live population (docs/cli.md): drafts a
/// seeded candidate problem for the *current snapshot's users* and runs the
/// sched search with the solver as oracle. Read-only — it never touches the
/// replicated (instance, plan) state — so, like `rebalance`, a follower may
/// serve it. Draft/candidate counts are bounded: the oracle space is
/// (candidates + 1)^drafts solves and this runs on the request thread.
void HandleSchedule(ReadCall& c) {
  int drafts = 3;
  int candidates = 3;
  uint64_t seed = 1;
  std::string error;
  // Seeds stop at 2^53, the largest range of integers a double holds exactly.
  if ((c.request.contains("drafts") &&
       !GetIntField(c.request, "drafts", 1, 8, &drafts, &error)) ||
      (c.request.contains("candidates") &&
       !GetIntField(c.request, "candidates", 1, 8, &candidates, &error)) ||
      (c.request.contains("seed") &&
       !GetIntField<uint64_t>(c.request, "seed", 0, uint64_t{1} << 53, &seed,
                              &error))) {
    FillError(c.writer, error);
    return;
  }
  double lambda = 0.0;
  auto lambda_it = c.request.find("lambda");
  if (lambda_it != c.request.end()) {
    if (lambda_it->second.type != JsonValue::Type::kNumber ||
        !std::isfinite(lambda_it->second.number_value) ||
        lambda_it->second.number_value < 0.0) {
      FillError(c.writer, "'lambda' must be a finite non-negative number");
      return;
    }
    lambda = lambda_it->second.number_value;
  }

  const auto snap = c.service->snapshot();
  ScheduleGenConfig gen;
  gen.num_drafts = drafts;
  gen.candidates_per_draft = candidates;
  gen.seed = seed;
  ScheduleProblem problem =
      GenerateScheduleProblemForUsers(snap->instance->users(), gen);

  ScheduleOptions options;
  options.seed = seed;
  FriendshipGraph friends;
  if (lambda > 0.0) {
    FriendshipConfig fc;
    fc.seed = seed + 7;
    friends = GenerateFriendshipGraph(problem.users, fc);
    options.affinity.graph = &friends;
    options.affinity.lambda = lambda;
  }
  auto result = SolveSchedule(problem, options);
  if (!result.ok()) {
    FillError(c.writer, result.status().ToString());
    return;
  }

  std::string chosen = "[";
  for (size_t d = 0; d < result->choice.size(); ++d) {
    const int c = result->choice[d];
    JsonWriter item;
    item.Add("draft", static_cast<int64_t>(d));
    item.Add("candidate", c);
    if (c >= 0) {
      const ScheduleCandidate& cand = problem.drafts[d].candidates[c];
      item.Add("start", cand.slot.start);
      item.Add("end", cand.slot.end);
      item.Add("x", cand.venue.x);
      item.Add("y", cand.venue.y);
      item.Add("capacity", cand.capacity);
    }
    if (d > 0) chosen += ",";
    chosen += item.Finish();
  }
  chosen += "]";

  c.writer->Add("ok", true);
  c.writer->Add("version", snap->version);
  c.writer->AddRaw("chosen", chosen);
  c.writer->Add("score", result->score);
  c.writer->Add("utility", result->total_utility);
  c.writer->Add("affinity_utility", result->affinity_utility);
  c.writer->Add("attendance", result->attendance);
  c.writer->Add("oracle_calls", result->stats.oracle_calls);
  c.writer->Add("cache_hits", result->stats.cache_hits);
  c.writer->Add("degraded", result->stats.degraded_candidates);
  c.writer->Add("skipped", result->stats.skipped_candidates);
}

void HandleDrain(WriteCall& c) {
  c.service->Drain();
  c.writer->Add("ok", true);
  c.writer->Add("drained", true);
}

void HandleShutdown(WriteCall& c) {
  c.writer->Add("ok", true);
  c.writer->Add("shutdown", true);
  c.shutdown = true;
}

/// A command's kind is the handler slot it fills, so a kRead row can only
/// hold a handler that sees the service as const.
struct Command {
  const char* name;
  bool redirects_on_follower;  // it changes the replicated state
  void (*read)(ReadCall&);     // set for kRead commands
  void (*write)(WriteCall&);   // set for kWrite commands
};

/// Every protocol command. `rebalance` and `checkpoint` are writes but
/// local-only ones: the partition and the checkpoint files are derived
/// state, so a follower runs them without diverging from its primary.
constexpr Command kCommands[] = {
    {"apply", true, nullptr, HandleApply},
    {"query_user", false, HandleQueryUser, nullptr},
    {"query_event", false, HandleQueryEvent, nullptr},
    {"stats", false, HandleStats, nullptr},
    {"metrics", false, HandleMetrics, nullptr},
    {"checkpoint", false, nullptr, HandleCheckpoint},
    {"save_plan", false, nullptr, HandleSavePlan},
    {"rebuild", true, nullptr, HandleRebuild},
    {"rebalance", false, nullptr, HandleRebalance},
    {"schedule", false, HandleSchedule, nullptr},
    {"faults", false, HandleFaults, nullptr},
    {"drain", false, nullptr, HandleDrain},
    {"shutdown", false, nullptr, HandleShutdown},
};

const Command* FindCommand(const std::string& cmd) {
  for (const Command& command : kCommands) {
    if (cmd == command.name) return &command;
  }
  return nullptr;
}

}  // namespace

GepcAlgorithm AlgorithmFromName(const std::string& name) {
  if (name == "gap") return GepcAlgorithm::kGapBased;
  if (name == "regret") return GepcAlgorithm::kRegret;
  return GepcAlgorithm::kGreedy;
}

std::string RenderAllMetricsText(const PlanningService& service) {
  return obs::Registry::Global().RenderPrometheusText() +
         RenderServiceStatsText(service.Stats());
}

CommandKind ClassifyCommand(const std::string& cmd) {
  const Command* command = FindCommand(cmd);
  if (command == nullptr) return CommandKind::kUnknown;
  return command->read != nullptr ? CommandKind::kRead : CommandKind::kWrite;
}

std::string ExtractCmdHint(const std::string& line) {
  // Looks for `"cmd"` followed by `:` and a string value. Escapes inside
  // command names don't exist in the protocol, so a plain scan suffices as
  // a routing hint; Dispatch re-parses authoritatively.
  const size_t key = line.find("\"cmd\"");
  if (key == std::string::npos) return "";
  size_t pos = line.find(':', key + 5);
  if (pos == std::string::npos) return "";
  ++pos;
  while (pos < line.size() &&
         (line[pos] == ' ' || line[pos] == '\t')) {
    ++pos;
  }
  if (pos >= line.size() || line[pos] != '"') return "";
  const size_t start = ++pos;
  const size_t end = line.find('"', start);
  if (end == std::string::npos) return "";
  return line.substr(start, end - start);
}

DispatchOutcome CommandDispatcher::Dispatch(const std::string& line) const {
  DispatchOutcome outcome;
  JsonWriter writer;
  auto request = ParseJsonObject(line);
  if (!request.ok()) {
    FillError(&writer, request.status().ToString());
    outcome.response = writer.Finish();
    return outcome;
  }
  EchoRequestId(*request, &writer);
  std::string cmd;
  std::string error;
  if (!GetStringField(*request, "cmd", &cmd, &error)) {
    FillError(&writer, error);
    outcome.response = writer.Finish();
    return outcome;
  }
  const Command* command = FindCommand(cmd);
  if (command == nullptr) {
    FillError(&writer, "unknown cmd '" + cmd + "'");
  } else if (command->redirects_on_follower && role_ != nullptr &&
             role_->follower.load(std::memory_order_acquire)) {
    // State mutations belong to the primary: the client gets a structured
    // redirect it can follow (code + address) rather than a generic error.
    writer.Add("ok", false);
    writer.Add("code", "redirect");
    writer.Add("error", "follower is read-only; send writes to the primary");
    writer.Add("primary", role_->primary);
  } else if (command->read != nullptr) {
    ReadCall call{service_, *request, defaults_, role_, &writer};
    command->read(call);
  } else {
    WriteCall call{service_, *request, defaults_, role_, &writer};
    command->write(call);
    outcome.shutdown = call.shutdown;
  }
  outcome.response = writer.Finish();
  return outcome;
}

}  // namespace gepc
