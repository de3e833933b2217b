#include "service/planning_service.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>
#include <variant>

#include "ckpt/checkpoint.h"
#include "common/logging.h"
#include "common/memory_tracker.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/recovery.h"

namespace gepc {

namespace {

template <typename... Visitors>
struct Overloaded : Visitors... {
  using Visitors::operator()...;
};
template <typename... Visitors>
Overloaded(Visitors...) -> Overloaded<Visitors...>;

bool FileHasContent(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec) &&
         std::filesystem::file_size(path, ec) > 0;
}

Status EnsureCheckpointDir(const std::string& dir) {
  if (dir.empty()) return Status::OK();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Unavailable("cannot create checkpoint dir " + dir + ": " +
                               ec.message());
  }
  return Status::OK();
}

/// Records the checkpoint file at `path` as the newest one: its version,
/// size and modification time.
void NoteCheckpoint(const std::string& path, uint64_t version,
                    ServiceWriterStats* stats) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  stats->last_checkpoint_bytes = ec ? 0 : static_cast<int64_t>(size);
  const auto mtime = std::filesystem::last_write_time(path, ec);
  stats->last_checkpoint_time =
      ec ? std::filesystem::file_time_type::clock::now() : mtime;
  stats->last_checkpoint_version = version;
}

}  // namespace

PlanningService::PlanningService(IncrementalPlanner planner,
                                 ServiceOptions options,
                                 std::optional<Journal> journal,
                                 uint64_t base_sequence,
                                 ServiceWriterStats boot)
    : options_([&options] {
        if (options.checkpoint_retain < 1) options.checkpoint_retain = 1;
        return options;
      }()),
      planner_(std::move(planner)),
      journal_(std::move(journal)),
      sequence_(base_sequence),
      stats_(std::move(boot)),
      queue_(options_.queue_capacity) {
  committed_sequence_.store(base_sequence, std::memory_order_release);
  if (options_.rebalance_shards > 1) {
    // Built before the writer starts, then confined to the writer thread.
    tracker_.emplace(planner_.instance(), options_.rebalance_shards);
    stats_.rebalance_shards = options_.rebalance_shards;
  }
  PublishSnapshot();
  writer_ = std::thread(&PlanningService::WriterLoop, this);
}

Result<std::unique_ptr<PlanningService>> PlanningService::Create(
    Instance instance, Plan plan, ServiceOptions options) {
  GEPC_ASSIGN_OR_RETURN(
      IncrementalPlanner planner,
      IncrementalPlanner::Create(std::move(instance), std::move(plan)));
  GEPC_RETURN_IF_ERROR(EnsureCheckpointDir(options.checkpoint_dir));
  std::optional<Journal> journal;
  if (!options.journal_path.empty()) {
    if (FileHasContent(options.journal_path)) {
      return Status::FailedPrecondition(
          "journal " + options.journal_path +
          " already has operations; use Recover (or remove the file)");
    }
    GEPC_ASSIGN_OR_RETURN(Journal opened, Journal::Open(options.journal_path));
    journal = std::move(opened);
  }
  return std::unique_ptr<PlanningService>(new PlanningService(
      std::move(planner), std::move(options), std::move(journal),
      /*base_sequence=*/0, ServiceWriterStats{}));
}

Result<std::unique_ptr<PlanningService>> PlanningService::Recover(
    Instance base_instance, Plan base_plan, ServiceOptions options) {
  if (options.journal_path.empty()) {
    return Status::InvalidArgument("Recover needs options.journal_path");
  }
  GEPC_RETURN_IF_ERROR(EnsureCheckpointDir(options.checkpoint_dir));
  Timer timer;
  GEPC_ASSIGN_OR_RETURN(
      RecoveredState recovered,
      RecoverServiceState(std::move(base_instance), std::move(base_plan),
                          options.journal_path, options.checkpoint_dir));
  GEPC_ASSIGN_OR_RETURN(
      IncrementalPlanner planner,
      IncrementalPlanner::Create(std::move(recovered.instance),
                                 std::move(recovered.plan)));
  // The journal was already scanned once; Open reuses that scan. A journal
  // that never existed (checkpoint-only boot) starts at the recovered
  // version so row i keeps carrying sequence base + i.
  GEPC_ASSIGN_OR_RETURN(
      Journal journal,
      Journal::Open(options.journal_path, &recovered.scan,
                    /*base_if_new=*/recovered.version));
  if (recovered.journal_needs_rebase) {
    // The checkpoint is newer than the journal's last committed row (the
    // crash tore the journal tail after the checkpoint was published):
    // rebase the journal to the recovered version so future appends align.
    GEPC_RETURN_IF_ERROR(journal.Compact(recovered.version));
  }
  ServiceWriterStats boot;
  boot.recovered_from_checkpoint = recovered.used_checkpoint;
  boot.recovery_checkpoint_version = recovered.checkpoint_version;
  boot.recovery_ops_replayed = recovered.ops_replayed + recovered.ops_rejected;
  boot.recovery_ms = timer.ElapsedMillis();
  if (recovered.used_checkpoint) {
    // The checkpoint that booted us is on disk: report it until the next
    // publication replaces it.
    NoteCheckpoint(recovered.checkpoint_path, recovered.checkpoint_version,
                   &boot);
  }
  static const auto recoveries = obs::Registry::Global().GetCounter(
      "gepc_service_recoveries_total", "service boots through Recover");
  static const auto ckpt_recoveries = obs::Registry::Global().GetCounter(
      "gepc_service_recoveries_from_checkpoint_total",
      "recoveries bootstrapped by a checkpoint");
  recoveries->Increment();
  if (recovered.used_checkpoint) ckpt_recoveries->Increment();
  GEPC_LOG(Info) << "recovered to sequence " << recovered.version
                 << (recovered.used_checkpoint
                         ? " from checkpoint " + recovered.checkpoint_path +
                               " + "
                         : " by full replay of ") +
                        std::to_string(boot.recovery_ops_replayed) +
                        " journal ops ("
                 << recovered.ops_rejected << " rejected, "
                 << recovered.checkpoints_skipped << " checkpoints skipped)";
  return std::unique_ptr<PlanningService>(new PlanningService(
      std::move(planner), std::move(options), std::move(journal),
      /*base_sequence=*/recovered.version, std::move(boot)));
}

PlanningService::~PlanningService() { Shutdown(); }

template <typename Request>
auto PlanningService::Enqueue(Request request)
    -> decltype(request.promise.get_future()) {
  auto future = request.promise.get_future();
  PendingOp pending{std::move(request)};
  if (obs::Enabled()) pending.enqueue_time = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++tickets_issued_;
  }
  metrics_.RecordSubmitted();
  if (!queue_.Push(std::move(pending))) {
    // Closed: Push left `pending` untouched, so the promise is still ours.
    metrics_.RecordDropped();
    decltype(future.get()) outcome;
    outcome.error = "service is shut down";
    std::get<Request>(pending.request).promise.set_value(std::move(outcome));
    FinishOne();
  }
  return future;
}

std::future<ApplyOutcome> PlanningService::Submit(AtomicOp op) {
  return Enqueue(OpRequest{std::move(op), {}});
}

Result<std::future<ApplyOutcome>> PlanningService::TrySubmit(AtomicOp op) {
  OpRequest request{std::move(op), {}};
  std::future<ApplyOutcome> future = request.promise.get_future();
  PendingOp pending{std::move(request)};
  if (obs::Enabled()) pending.enqueue_time = std::chrono::steady_clock::now();
  bool full = false;
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++tickets_issued_;
  }
  if (queue_.TryPush(std::move(pending), &full)) {
    metrics_.RecordSubmitted();
    return future;
  }
  metrics_.RecordDropped();
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++tickets_finished_;
  }
  drain_cv_.notify_all();
  if (full) return Status::Unavailable("op queue is full");
  return Status::Unavailable("service is shut down");
}

ApplyOutcome PlanningService::Apply(AtomicOp op) {
  return Submit(std::move(op)).get();
}

std::future<RebuildOutcome> PlanningService::SubmitRebuild(
    ShardedGepcOptions options) {
  return Enqueue(RebuildRequest{std::move(options), {}});
}

RebuildOutcome PlanningService::Rebuild(ShardedGepcOptions options) {
  return SubmitRebuild(std::move(options)).get();
}

std::future<CheckpointOutcome> PlanningService::SubmitCheckpoint() {
  return Enqueue(CheckpointRequest{});
}

CheckpointOutcome PlanningService::Checkpoint() {
  return SubmitCheckpoint().get();
}

std::future<RebalanceOutcome> PlanningService::SubmitRebalance() {
  return Enqueue(RebalanceRequest{});
}

RebalanceOutcome PlanningService::Rebalance() {
  return SubmitRebalance().get();
}

void PlanningService::SetCommitHook(CommitHook hook) {
  std::lock_guard<std::mutex> lock(commit_hook_mu_);
  commit_hook_ = std::move(hook);
}

void PlanningService::SetRetentionPin(uint64_t pin) {
  retention_pin_.store(pin, std::memory_order_release);
}

uint64_t PlanningService::retention_pin() const {
  return retention_pin_.load(std::memory_order_acquire);
}

std::shared_ptr<const ServiceSnapshot> PlanningService::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

Result<Itinerary> PlanningService::QueryUser(UserId user) const {
  const std::shared_ptr<const ServiceSnapshot> snap = snapshot();
  if (user < 0 || user >= snap->instance->num_users()) {
    return Status::OutOfRange("user " + std::to_string(user) +
                              " outside [0, " +
                              std::to_string(snap->instance->num_users()) +
                              ")");
  }
  return BuildItinerary(*snap->instance, *snap->plan, user);
}

ServiceStats PlanningService::Stats() const {
  const std::shared_ptr<const ServiceSnapshot> snap = snapshot();
  ServiceStats stats;
  static_cast<ServiceWriterStats&>(stats) = snap->writer;
  metrics_.FillStats(&stats);
  stats.queue_depth = queue_.depth();
  stats.queue_high_water = queue_.high_water();
  stats.queue_capacity = queue_.capacity();
  if (stats.last_checkpoint_time) {
    stats.last_checkpoint_age_seconds = std::max(
        0.0, std::chrono::duration<double>(
                 std::filesystem::file_time_type::clock::now() -
                 *stats.last_checkpoint_time)
                 .count());
  }
  stats.snapshot_version = snap->version;
  stats.total_utility = snap->total_utility;
  stats.total_assignments = snap->total_assignments;
  stats.events_below_lower_bound = snap->events_below_lower_bound;
  stats.heap_bytes = MemoryTracker::CurrentBytes();
  stats.peak_heap_bytes = MemoryTracker::PeakBytes();
  stats.rss_bytes = MemoryTracker::CurrentRssBytes();
  return stats;
}

void PlanningService::Drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  const uint64_t target = tickets_issued_;
  drain_cv_.wait(lock, [&] { return tickets_finished_ >= target; });
}

void PlanningService::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    accepting_.store(false, std::memory_order_release);
    queue_.Close();
    if (writer_.joinable()) writer_.join();
  });
}

void PlanningService::WriterLoop() {
  // Publish-before-resolve: one snapshot per finished request, published
  // before its promise is set, so whoever waits on the future (or on Drain)
  // sees the request's effects and counters.
  const auto resolve = [this](auto& promise, auto outcome) {
    PublishSnapshot();
    promise.set_value(std::move(outcome));
  };
  PendingOp pending;
  while (queue_.Pop(&pending)) {
    if (pending.enqueue_time != std::chrono::steady_clock::time_point{}) {
      metrics_.RecordQueueWait(std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() -
                                   pending.enqueue_time)
                                   .count());
    }
    std::visit(
        Overloaded{
            [&](OpRequest& r) { resolve(r.promise, ApplyOne(r.op)); },
            [&](RebuildRequest& r) {
              resolve(r.promise, ApplyRebuild(r.options));
            },
            [&](CheckpointRequest& r) {
              GEPC_TRACE_SPAN("service.checkpoint", "service");
              resolve(r.promise, DoCheckpoint());
            },
            [&](RebalanceRequest& r) {
              GEPC_TRACE_SPAN("service.rebalance", "service");
              resolve(r.promise, DoRebalance());
            },
        },
        pending.request);
    FinishOne();
  }
}

ApplyOutcome PlanningService::ApplyOne(const AtomicOp& op) {
  GEPC_TRACE_SPAN("service.apply", "service");
  Timer timer;
  ApplyOutcome outcome;

  Status journaled = Status::OK();
  if (journal_) {
    journaled = journal_->Append(op);
    // Transient append failures (kUnavailable: disk hiccup, injected fault;
    // the journal restored its tail, so the file is intact) are retried
    // up to kRetryLimit times, waiting 1 ms doubled per attempt up to
    // kBackoffMaxMs; anything else — or exhausting the budget — rejects
    // the op without applying it.
    constexpr int kRetryLimit = 3;
    constexpr int kBackoffMaxMs = 50;
    int backoff_ms = 1;
    for (int retry = 0; !journaled.ok() &&
                        journaled.code() == StatusCode::kUnavailable &&
                        retry < kRetryLimit;
         ++retry) {
      ++stats_.journal_retries;
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, kBackoffMaxMs);
      journaled = journal_->Append(op);
    }
  }
  if (!journaled.ok()) {
    // If the op cannot be made durable it must not be applied, or a replay
    // would diverge from the served state.
    outcome.applied = false;
    outcome.error = "journal append failed: " + journaled.ToString();
    ++stats_.ops_rejected;
    metrics_.RecordApplyMs(timer.ElapsedMillis());
  } else {
    const uint64_t sequence = ++sequence_;
    committed_sequence_.store(sequence, std::memory_order_release);
    // Commit point: the row's newline is on disk. Fan it out to followers
    // before applying, so replication latency never includes apply time.
    {
      std::lock_guard<std::mutex> lock(commit_hook_mu_);
      if (commit_hook_) commit_hook_(sequence, op);
    }
    auto step = planner_.Apply(op);
    const double elapsed_ms = timer.ElapsedMillis();
    outcome.sequence = sequence;
    if (step.ok()) {
      outcome.applied = true;
      outcome.negative_impact = step->negative_impact;
      outcome.total_utility = step->total_utility;
      outcome.events_below_lower_bound = step->events_below_lower_bound;
      outcome.added_by_topup = step->added_by_topup;
      ++stats_.ops_applied;
      stats_.negative_impact_total += step->negative_impact;
      metrics_.RecordApplyMs(elapsed_ms);
      if (tracker_) {
        const Status migrated =
            tracker_->TrackAppliedOp(planner_.instance(), op, elapsed_ms);
        if (!migrated.ok()) {
          GEPC_LOG(Warning) << "shard migration failed (partition stale): "
                            << migrated.ToString();
        }
        ++ops_since_rebalance_check_;
        if (options_.rebalance_every > 0 &&
            ops_since_rebalance_check_ >=
                static_cast<uint64_t>(options_.rebalance_every)) {
          ops_since_rebalance_check_ = 0;
          if (tracker_->Skew() >= options_.rebalance_skew) {
            // Auto-trigger: like auto-checkpoints, failures only warn — the
            // op itself succeeded and the old partition is still valid.
            const RebalanceOutcome rebalanced = DoRebalance();
            if (!rebalanced.rebalanced) {
              GEPC_LOG(Warning)
                  << "auto rebalance failed: " << rebalanced.error;
            }
          }
        }
      }
    } else {
      outcome.applied = false;
      outcome.error = step.status().ToString();
      ++stats_.ops_rejected;
      metrics_.RecordApplyMs(elapsed_ms);
    }
    ++ops_since_checkpoint_;
    if (options_.checkpoint_every > 0 && !options_.checkpoint_dir.empty() &&
        ops_since_checkpoint_ >=
            static_cast<uint64_t>(options_.checkpoint_every)) {
      // Auto-trigger: failures are surfaced via metrics and the log only —
      // the op itself succeeded and the journal still covers the state.
      const CheckpointOutcome checkpointed = DoCheckpoint();
      if (!checkpointed.published) {
        GEPC_LOG(Warning) << "auto checkpoint failed: " << checkpointed.error;
      }
    }
  }
  return outcome;
}

RebuildOutcome PlanningService::ApplyRebuild(
    const ShardedGepcOptions& options) {
  GEPC_TRACE_SPAN("service.rebuild", "service");
  Timer timer;
  RebuildOutcome outcome;
  // Deliberately not journaled: the journal is the log of EBSN changes,
  // and replaying it reconstructs a consistent served state without the
  // rebuild (see SubmitRebuild's contract).
  auto solved = SolveSharded(planner_.instance(), options,
                             &outcome.stats);
  if (!solved.ok()) {
    outcome.error = solved.status().ToString();
    ++stats_.ops_rejected;
    metrics_.RecordApplyMs(timer.ElapsedMillis());
  } else {
    outcome.total_utility = solved->total_utility;
    outcome.events_below_lower_bound = solved->events_below_lower_bound;
    outcome.negative_impact = NegativeImpact(planner_.plan(), solved->plan);
    auto fresh = IncrementalPlanner::Create(planner_.instance(),
                                            std::move(solved->plan));
    if (!fresh.ok()) {
      // SolveSharded's plan is always consistent with its instance; treat
      // a mismatch as a rejected request rather than tearing down.
      outcome.error = fresh.status().ToString();
      ++stats_.ops_rejected;
      metrics_.RecordApplyMs(timer.ElapsedMillis());
    } else {
      planner_ = *std::move(fresh);
      outcome.rebuilt = true;
      ++stats_.ops_applied;
      stats_.negative_impact_total += outcome.negative_impact;
      metrics_.RecordApplyMs(timer.ElapsedMillis());
    }
  }
  return outcome;
}

RebalanceOutcome PlanningService::DoRebalance() {
  RebalanceOutcome outcome;
  if (!tracker_) {
    outcome.error =
        "rebalance tracker disabled (options.rebalance_shards <= 1)";
    ++stats_.rebalance_failures;
    return outcome;
  }
  outcome.sequence = sequence_;
  // Like rebuilds, deliberately not journaled: the partition is derived
  // state and replaying the op journal reconstructs a valid served state
  // without it.
  auto rebalanced = tracker_->Rebalance(planner_.instance());
  if (!rebalanced.ok()) {
    outcome.error = rebalanced.status().ToString();
    ++stats_.rebalance_failures;
    return outcome;
  }
  outcome.rebalanced = true;
  outcome.report = *rebalanced;
  stats_.last_rebalance_version = sequence_;
  return outcome;
}

CheckpointOutcome PlanningService::DoCheckpoint() {
  CheckpointOutcome outcome;
  outcome.version = sequence_;
  if (options_.checkpoint_dir.empty()) {
    outcome.error = "no checkpoint_dir configured";
    ++stats_.checkpoint_failures;
    return outcome;
  }
  // Publication is atomic (temp -> fsync -> rename) and the journal is
  // untouched until it lands, so a crash or failure anywhere in here leaves
  // the previous checkpoint set + full journal — recovery is unaffected.
  auto written = WriteCheckpoint(options_.checkpoint_dir, planner_.instance(),
                                 planner_.plan(), sequence_);
  if (!written.ok()) {
    outcome.error = written.status().ToString();
    ++stats_.checkpoint_failures;
    return outcome;
  }
  outcome.published = true;
  outcome.path = *written;
  NoteCheckpoint(*written, sequence_, &stats_);
  outcome.bytes = stats_.last_checkpoint_bytes;
  ops_since_checkpoint_ = 0;
  ++stats_.checkpoints_published;

  // Retention pinning (docs/replication.md): a registered follower's sync
  // floor caps both pruning and compaction so the checkpoint + journal
  // prefix it still needs outlive this publication.
  const uint64_t pin = retention_pin_.load(std::memory_order_acquire);
  auto survivors = PruneCheckpoints(options_.checkpoint_dir,
                                    options_.checkpoint_retain, pin);
  if (!survivors.ok()) {
    GEPC_LOG(Warning) << "checkpoint prune failed: "
                      << survivors.status().ToString();
    return outcome;  // published; pruning/compaction are best-effort
  }
  if (journal_ && !survivors->empty()) {
    // Compact through the OLDEST retained checkpoint so every survivor can
    // still bridge from its version to the journal tail — if the newest
    // file rots, recovery falls back one generation without data loss.
    // Clamped to the retention pin: rows past a follower's floor survive
    // even when no checkpoint anchors there.
    const uint64_t through = std::min(survivors->back().version, pin);
    const Status compacted = journal_->Compact(through);
    if (compacted.ok()) {
      outcome.compacted = true;
    } else {
      GEPC_LOG(Warning) << "journal compaction failed (journal intact): "
                        << compacted.ToString();
    }
  }
  return outcome;
}

void PlanningService::PublishSnapshot() {
  ++stats_.snapshots_published;
  if (journal_) {
    stats_.journal_bytes = journal_->bytes_written();
    stats_.journal_base_sequence = journal_->base_sequence();
    stats_.journal_compactions = journal_->compactions();
  }
  if (tracker_) {
    const ShardTrackerStats& ts = tracker_->stats();
    stats_.shard_migrations = ts.migrations;
    stats_.shard_users_migrated = ts.users_reclassified;
    stats_.shard_events_migrated = ts.events_moved;
    stats_.shard_full_rebuilds = ts.full_rebuilds;
    stats_.rebalances = ts.rebalances;
    stats_.shard_boundary_users = tracker_->partition().boundary_users.size();
    stats_.shard_skew = tracker_->Skew();
  }
  auto fresh = MakeServiceSnapshot(planner_.instance(), planner_.plan(),
                                   sequence_, stats_);
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(fresh);
  }
}

void PlanningService::FinishOne() {
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++tickets_finished_;
  }
  drain_cv_.notify_all();
}

}  // namespace gepc
