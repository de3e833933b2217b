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

void HandleApply(PlanningService* service, const JsonObject& request,
                 JsonWriter* writer) {
  std::string spec;
  std::string error;
  if (!GetStringField(request, "op", &spec, &error)) {
    FillError(writer, error);
    return;
  }
  auto op = ParseOpSpec(spec);
  if (!op.ok()) {
    FillError(writer, op.status().ToString());
    return;
  }
  auto wait_it = request.find("wait");
  const bool wait = wait_it == request.end() ||
                    wait_it->second.type != JsonValue::Type::kBool ||
                    wait_it->second.bool_value;
  if (!wait) {
    auto submitted = service->TrySubmit(*std::move(op));
    if (submitted.ok()) {
      writer->Add("ok", true);
      writer->Add("queued", true);
    } else {
      FillError(writer, submitted.status().ToString());
    }
    return;
  }
  const ApplyOutcome outcome = service->Apply(*std::move(op));
  writer->Add("ok", true);
  writer->Add("seq", outcome.sequence);
  writer->Add("applied", outcome.applied);
  if (outcome.applied) {
    writer->Add("dif", outcome.negative_impact);
    writer->Add("utility", outcome.total_utility);
    writer->Add("below_xi", outcome.events_below_lower_bound);
    if (outcome.added_by_topup > 0) {
      writer->Add("added_by_topup", outcome.added_by_topup);
    }
  } else {
    writer->Add("error", outcome.error);
  }
}

void HandleQueryUser(const PlanningService& service, const JsonObject& request,
                     JsonWriter* writer) {
  int user = -1;
  std::string error;
  if (!GetIntField(request, "user", 0, kMaxInt, &user, &error)) {
    FillError(writer, error);
    return;
  }
  auto itinerary = service.QueryUser(user);
  if (!itinerary.ok()) {
    FillError(writer, itinerary.status().ToString());
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

  writer->Add("ok", true);
  writer->Add("user", itinerary->user);
  writer->Add("budget", itinerary->budget);
  writer->Add("utility", itinerary->total_utility);
  writer->Add("travel", itinerary->total_travel);
  writer->Add("fees", itinerary->total_fees);
  writer->Add("cost", itinerary->total_cost);
  writer->Add("within_budget", itinerary->within_budget);
  writer->Add("conflict_free", itinerary->conflict_free);
  writer->AddRaw("stops", stops);
}

void HandleQueryEvent(const PlanningService& service,
                      const JsonObject& request, JsonWriter* writer) {
  int event = -1;
  std::string error;
  if (!GetIntField(request, "event", 0, kMaxInt, &event, &error)) {
    FillError(writer, error);
    return;
  }
  const auto snap = service.snapshot();
  if (event < 0 || event >= snap->instance->num_events()) {
    FillError(writer, "event " + std::to_string(event) + " outside [0, " +
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

  writer->Add("ok", true);
  writer->Add("event", event);
  writer->Add("attendance", snap->plan->attendance(event));
  writer->Add("xi", meta.lower_bound);
  writer->Add("eta", meta.upper_bound);
  writer->Add("start", meta.time.start);
  writer->Add("end", meta.time.end);
  writer->Add("fee", meta.fee);
  writer->AddRaw("attendees", attendees);
}

void HandleStats(const PlanningService& service, const ServeRole* role,
                 JsonWriter* writer) {
  const ServiceStats stats = service.Stats();
  const auto snap = service.snapshot();
  writer->Add("ok", true);
  // Role surface (docs/replication.md): harnesses read the mode here
  // instead of inferring it from command-line flags.
  const bool follower =
      role != nullptr && role->follower.load(std::memory_order_acquire);
  writer->Add("role", follower ? "follower" : "primary");
  writer->Add("net_compress", role != nullptr && role->net_compress);
  if (follower) writer->Add("primary", role->primary);
  writer->Add("users", snap->instance->num_users());
  writer->Add("events", snap->instance->num_events());
  writer->Add("ops_submitted", stats.ops_submitted);
  writer->Add("ops_applied", stats.ops_applied);
  writer->Add("ops_rejected", stats.ops_rejected);
  writer->Add("ops_dropped", stats.ops_dropped);
  writer->Add("negative_impact_total", stats.negative_impact_total);
  writer->Add("queue_depth", stats.queue_depth);
  writer->Add("queue_high_water", stats.queue_high_water);
  writer->Add("queue_capacity", stats.queue_capacity);
  writer->Add("apply_ms_mean", stats.apply_ms_mean);
  writer->Add("apply_ms_p50", stats.apply_ms_p50);
  writer->Add("apply_ms_p90", stats.apply_ms_p90);
  writer->Add("apply_ms_p99", stats.apply_ms_p99);
  writer->Add("apply_ms_max", stats.apply_ms_max);
  writer->Add("apply_ms_count", stats.apply_ms.count);
  writer->Add("apply_ms_exact", stats.apply_ms.exact);
  writer->Add("queue_wait_ms_mean", stats.queue_wait_ms.Mean());
  writer->Add("queue_wait_ms_p50", stats.queue_wait_ms.Quantile(0.50));
  writer->Add("queue_wait_ms_p90", stats.queue_wait_ms.Quantile(0.90));
  writer->Add("queue_wait_ms_p99", stats.queue_wait_ms.Quantile(0.99));
  writer->Add("queue_wait_ms_max", stats.queue_wait_ms.max);
  writer->Add("journal_retries", stats.journal_retries);
  writer->Add("journal_bytes", stats.journal_bytes);
  writer->Add("journal_base", stats.journal_base_sequence);
  writer->Add("journal_compactions", stats.journal_compactions);
  writer->Add("snapshots_published", stats.snapshots_published);
  writer->Add("checkpoints_published", stats.checkpoints_published);
  writer->Add("checkpoint_failures", stats.checkpoint_failures);
  writer->Add("last_checkpoint_version", stats.last_checkpoint_version);
  writer->Add("last_checkpoint_bytes", stats.last_checkpoint_bytes);
  writer->Add("last_checkpoint_age_s", stats.last_checkpoint_age_seconds);
  writer->Add("recovered_from_checkpoint", stats.recovered_from_checkpoint);
  writer->Add("recovery_ops_replayed", stats.recovery_ops_replayed);
  writer->Add("recovery_ms", stats.recovery_ms);
  writer->Add("version", stats.snapshot_version);
  writer->Add("utility", stats.total_utility);
  writer->Add("assignments", stats.total_assignments);
  writer->Add("below_xi", stats.events_below_lower_bound);
  writer->Add("heap_bytes", stats.heap_bytes);
  writer->Add("peak_heap_bytes", stats.peak_heap_bytes);
  writer->Add("rss_bytes", stats.rss_bytes);
  writer->Add("rebalance_shards", stats.rebalance_shards);
  if (stats.rebalance_shards > 0) {
    writer->Add("shard_skew", stats.shard_skew);
    writer->Add("shard_boundary_users", stats.shard_boundary_users);
    writer->Add("rebalances", stats.rebalances);
    writer->Add("rebalance_failures", stats.rebalance_failures);
    writer->Add("shard_migrations", stats.shard_migrations);
    writer->Add("last_rebalance_version", stats.last_rebalance_version);
  }
}

void HandleMetrics(const PlanningService& service, JsonWriter* writer) {
  writer->Add("ok", true);
  writer->Add("format", "prometheus");
  writer->Add("metrics", RenderAllMetricsText(service));
}

void HandleFaults(JsonWriter* writer) {
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
  writer->Add("ok", true);
  writer->Add("enabled", fault::Enabled());
  writer->AddRaw("points", points);
}

void HandleCheckpoint(PlanningService* service, JsonWriter* writer) {
  const CheckpointOutcome outcome = service->Checkpoint();
  if (!outcome.published) {
    FillError(writer, outcome.error);
    return;
  }
  writer->Add("ok", true);
  writer->Add("checkpoint", true);
  writer->Add("version", outcome.version);
  writer->Add("path", outcome.path);
  writer->Add("bytes", outcome.bytes);
  writer->Add("compacted", outcome.compacted);
}

void HandleSavePlan(PlanningService* service, const JsonObject& request,
                    JsonWriter* writer) {
  std::string path;
  std::string error;
  if (!GetStringField(request, "path", &path, &error)) {
    FillError(writer, error);
    return;
  }
  service->Drain();
  const auto snap = service->snapshot();
  const Status saved = SavePlanToFile(*snap->plan, path);
  if (!saved.ok()) {
    FillError(writer, saved.ToString());
    return;
  }
  writer->Add("ok", true);
  writer->Add("saved", path);
  writer->Add("version", snap->version);
}

void HandleRebuild(PlanningService* service, const JsonObject& request,
                   const DispatchDefaults& defaults, JsonWriter* writer) {
  ShardedGepcOptions options;
  options.threads = defaults.threads;
  options.shards = defaults.shards;
  options.gepc.algorithm = defaults.algorithm;

  // Optional per-request overrides of the front end's defaults.
  std::string error;
  if ((request.contains("threads") &&
       !GetIntField(request, "threads", 1, kMaxInt, &options.threads,
                    &error)) ||
      (request.contains("shards") &&
       !GetIntField(request, "shards", 1, kMaxInt, &options.shards, &error))) {
    FillError(writer, error);
    return;
  }
  auto alg_it = request.find("algorithm");
  if (alg_it != request.end()) {
    const bool valid = alg_it->second.type == JsonValue::Type::kString &&
                       (alg_it->second.string_value == "greedy" ||
                        alg_it->second.string_value == "gap" ||
                        alg_it->second.string_value == "regret");
    if (!valid) {
      FillError(writer, "'algorithm' must be 'greedy', 'gap' or 'regret'");
      return;
    }
    options.gepc.algorithm = AlgorithmFromName(alg_it->second.string_value);
  }

  const RebuildOutcome outcome = service->Rebuild(std::move(options));
  if (!outcome.rebuilt) {
    FillError(writer, outcome.error);
    return;
  }
  writer->Add("ok", true);
  writer->Add("rebuilt", true);
  writer->Add("utility", outcome.total_utility);
  writer->Add("below_xi", outcome.events_below_lower_bound);
  writer->Add("dif", outcome.negative_impact);
  writer->Add("shards", outcome.stats.shards);
  writer->Add("boundary_users", outcome.stats.boundary_users);
}

void HandleRebalance(PlanningService* service, JsonWriter* writer) {
  const RebalanceOutcome outcome = service->Rebalance();
  if (!outcome.rebalanced) {
    FillError(writer, outcome.error);
    return;
  }
  writer->Add("ok", true);
  writer->Add("rebalanced", true);
  writer->Add("seq", outcome.sequence);
  writer->Add("iterations", outcome.report.iterations);
  writer->Add("events_moved", outcome.report.events_moved);
  writer->Add("users_moved", outcome.report.users_moved);
  writer->Add("skew_before", outcome.report.skew_before);
  writer->Add("skew_after", outcome.report.skew_after);
}

/// What-if scheduling over the live population (docs/cli.md): drafts a
/// seeded candidate problem for the *current snapshot's users* and runs the
/// sched search with the solver as oracle. Read-only — it never touches the
/// replicated (instance, plan) state — so, like `rebalance`, a follower may
/// serve it. Draft/candidate counts are bounded: the oracle space is
/// (candidates + 1)^drafts solves and this runs on the request thread.
void HandleSchedule(const PlanningService& service, const JsonObject& request,
                    JsonWriter* writer) {
  int drafts = 3;
  int candidates = 3;
  uint64_t seed = 1;
  std::string error;
  // Seeds stop at 2^53, the largest range of integers a double holds exactly.
  if ((request.contains("drafts") &&
       !GetIntField(request, "drafts", 1, 8, &drafts, &error)) ||
      (request.contains("candidates") &&
       !GetIntField(request, "candidates", 1, 8, &candidates, &error)) ||
      (request.contains("seed") &&
       !GetIntField<uint64_t>(request, "seed", 0, uint64_t{1} << 53, &seed,
                              &error))) {
    FillError(writer, error);
    return;
  }
  double lambda = 0.0;
  auto lambda_it = request.find("lambda");
  if (lambda_it != request.end()) {
    if (lambda_it->second.type != JsonValue::Type::kNumber ||
        !std::isfinite(lambda_it->second.number_value) ||
        lambda_it->second.number_value < 0.0) {
      FillError(writer, "'lambda' must be a finite non-negative number");
      return;
    }
    lambda = lambda_it->second.number_value;
  }

  const auto snap = service.snapshot();
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
    FillError(writer, result.status().ToString());
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

  writer->Add("ok", true);
  writer->Add("version", snap->version);
  writer->AddRaw("chosen", chosen);
  writer->Add("score", result->score);
  writer->Add("utility", result->total_utility);
  writer->Add("affinity_utility", result->affinity_utility);
  writer->Add("attendance", result->attendance);
  writer->Add("oracle_calls", result->stats.oracle_calls);
  writer->Add("cache_hits", result->stats.cache_hits);
  writer->Add("degraded", result->stats.degraded_candidates);
  writer->Add("skipped", result->stats.skipped_candidates);
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
  if (cmd == "query_user" || cmd == "query_event" || cmd == "stats" ||
      cmd == "metrics" || cmd == "faults" || cmd == "schedule") {
    return CommandKind::kRead;
  }
  if (cmd == "apply" || cmd == "rebuild" || cmd == "rebalance" ||
      cmd == "checkpoint" || cmd == "save_plan" || cmd == "drain" ||
      cmd == "shutdown") {
    return CommandKind::kWrite;
  }
  return CommandKind::kUnknown;
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
  // While the role says follower, state mutations belong to the primary:
  // the client gets a structured redirect it can follow (code + address)
  // rather than a generic error. Local-only writes (checkpoint, save_plan,
  // drain, shutdown) still run — they never change the replicated state.
  if (role_ != nullptr && role_->follower.load(std::memory_order_acquire) &&
      (cmd == "apply" || cmd == "rebuild")) {
    writer.Add("ok", false);
    writer.Add("code", "redirect");
    writer.Add("error", "follower is read-only; send writes to the primary");
    writer.Add("primary", role_->primary);
    outcome.response = writer.Finish();
    return outcome;
  }
  if (cmd == "apply") {
    HandleApply(service_, *request, &writer);
  } else if (cmd == "query_user") {
    HandleQueryUser(*service_, *request, &writer);
  } else if (cmd == "query_event") {
    HandleQueryEvent(*service_, *request, &writer);
  } else if (cmd == "stats") {
    HandleStats(*service_, role_, &writer);
  } else if (cmd == "metrics") {
    HandleMetrics(*service_, &writer);
  } else if (cmd == "checkpoint") {
    HandleCheckpoint(service_, &writer);
  } else if (cmd == "save_plan") {
    HandleSavePlan(service_, *request, &writer);
  } else if (cmd == "rebuild") {
    HandleRebuild(service_, *request, defaults_, &writer);
  } else if (cmd == "rebalance") {
    // A write, but — like checkpoint — a local-only one: the partition is
    // derived state, so a follower may rebalance without diverging from the
    // primary's replicated state.
    HandleRebalance(service_, &writer);
  } else if (cmd == "schedule") {
    HandleSchedule(*service_, *request, &writer);
  } else if (cmd == "faults") {
    HandleFaults(&writer);
  } else if (cmd == "drain") {
    service_->Drain();
    writer.Add("ok", true);
    writer.Add("drained", true);
  } else if (cmd == "shutdown") {
    writer.Add("ok", true);
    writer.Add("shutdown", true);
    outcome.shutdown = true;
  } else {
    FillError(&writer, "unknown cmd '" + cmd + "'");
  }
  outcome.response = writer.Finish();
  return outcome;
}

}  // namespace gepc
