#ifndef GEPC_SERVICE_PLANNING_SERVICE_H_
#define GEPC_SERVICE_PLANNING_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <variant>

#include "common/result.h"
#include "core/instance.h"
#include "core/itinerary.h"
#include "core/plan.h"
#include "iep/planner.h"
#include "service/journal.h"
#include "service/metrics.h"
#include "service/op_queue.h"
#include "service/snapshot.h"
#include "shard/rebalance.h"
#include "shard/sharded_solver.h"

namespace gepc {

struct ServiceOptions {
  /// Bound of the submission queue; producers beyond it block (Submit) or
  /// get backpressure (TrySubmit).
  size_t queue_capacity = 1024;

  /// Journal file (GOPS1). Empty disables journaling (tests, throwaway
  /// what-if services). `Create` refuses a pre-existing non-empty journal —
  /// use `Recover` to resume from one.
  std::string journal_path;

  /// Directory for GCKP1 checkpoint files. Empty disables checkpointing;
  /// the directory is created on startup when set. Recover scans it for the
  /// newest usable checkpoint and replays only the journal tail past it.
  std::string checkpoint_dir;

  /// Auto-publish a checkpoint every N *applied* operations (0 = only on
  /// demand via Checkpoint/SubmitCheckpoint). Requires checkpoint_dir.
  int checkpoint_every = 0;

  /// Checkpoints kept after each successful publication; older files are
  /// pruned and the journal is compacted through the OLDEST survivor's
  /// version, so every retained checkpoint can still bridge to the journal
  /// tail. Clamped to >= 1. The default keeps one fallback generation in
  /// case the newest file rots.
  int checkpoint_retain = 2;

  /// Shards the live rebalance tracker (ShardTracker) maintains. <= 1
  /// disables the tracker entirely: no routing, no skew accounting, and
  /// rebalance requests fail with kFailedPrecondition.
  int rebalance_shards = 0;

  /// Load-skew threshold (max/mean shard load) past which the writer
  /// triggers an automatic rebalance at the next cadence check. 0.0 fires
  /// on every check (deterministic tests); values below 1.0 behave like
  /// 0.0 since skew never drops under 1 once load exists.
  double rebalance_skew = 2.0;

  /// Check the skew every N applied operations (0 = never auto-rebalance;
  /// explicit Rebalance/SubmitRebalance still work).
  int rebalance_every = 0;
};

/// What happened to one submitted operation, delivered via the future that
/// Submit/TrySubmit return (Apply returns it directly).
struct ApplyOutcome {
  /// 1-based position in the apply/journal order; 0 when never applied.
  uint64_t sequence = 0;
  /// False when the op failed validation (state unchanged) or the service
  /// shut down before reaching it; `error` says which.
  bool applied = false;
  std::string error;
  int64_t negative_impact = 0;
  double total_utility = 0.0;
  int events_below_lower_bound = 0;
  int added_by_topup = 0;
};

/// What a full plan rebuild did, delivered via SubmitRebuild's future.
struct RebuildOutcome {
  /// False when the solve failed (state unchanged) or the service shut
  /// down before reaching the request; `error` says which.
  bool rebuilt = false;
  std::string error;
  double total_utility = 0.0;
  int events_below_lower_bound = 0;
  /// dif(old plan, new plan): attendances the rebuild took away.
  int64_t negative_impact = 0;
  ShardedGepcStats stats;
};

/// What a shard rebalance did, delivered via SubmitRebalance's future.
struct RebalanceOutcome {
  /// False when the tracker is disabled, the rebalance aborted (injected
  /// shard.rebalance fault) or the service shut down first; `error` says
  /// which. The partition is untouched on failure.
  bool rebalanced = false;
  std::string error;
  /// Sequence at which the rebalance ran (0 when it never ran).
  uint64_t sequence = 0;
  RebalanceReport report;
};

/// What a checkpoint request did, delivered via SubmitCheckpoint's future.
struct CheckpointOutcome {
  /// False when the checkpoint could not be published (state and journal
  /// unchanged) or the service shut down first; `error` says which.
  bool published = false;
  std::string error;
  /// Sequence the checkpoint captures: ops 1..version are absorbed by it.
  uint64_t version = 0;
  std::string path;
  int64_t bytes = 0;
  /// True when the journal was compacted after the publication (it is
  /// skipped — with a warning, not an error — when compaction fails; the
  /// journal stays valid, merely longer than necessary).
  bool compacted = false;
};

/// Long-running online planning core (the paper's IEP loop turned into a
/// service): owns an Instance + Plan behind a single writer thread that
/// drains a bounded MPSC queue of atomic operations, journals every
/// accepted op *before* applying it (crash recovery = ReplayJournal), and
/// publishes immutable ServiceSnapshots so any number of reader threads can
/// query plans, itineraries and stats without ever blocking the writer.
///
/// Thread-safety: every public method may be called from any thread.
/// Ordering: operations are applied in queue (FIFO) order, which is exactly
/// the journal order, so a replay reconstructs the identical state.
class PlanningService {
 public:
  /// Validates (instance, plan) — normally a SolveGepc output — opens the
  /// journal (if configured), publishes the initial snapshot, and starts
  /// the writer thread.
  static Result<std::unique_ptr<PlanningService>> Create(
      Instance instance, Plan plan, ServiceOptions options = {});

  /// Crash recovery: loads the newest usable checkpoint from
  /// options.checkpoint_dir (when set) and replays only the journal tail
  /// past its version — bounded by ops-since-last-checkpoint instead of the
  /// full history — falling back to older checkpoints when the newest is
  /// torn or corrupt, and to a full journal replay on top of the base state
  /// when no checkpoint is usable. The journal is read exactly once. The
  /// recovered service is byte-for-byte the one that crashed.
  static Result<std::unique_ptr<PlanningService>> Recover(
      Instance base_instance, Plan base_plan, ServiceOptions options);

  ~PlanningService();

  PlanningService(const PlanningService&) = delete;
  PlanningService& operator=(const PlanningService&) = delete;

  /// Enqueues `op`; blocks while the queue is full. The future resolves
  /// when the writer thread has journaled + applied (or rejected) the op.
  /// After Shutdown the future resolves immediately with applied=false.
  std::future<ApplyOutcome> Submit(AtomicOp op);

  /// Non-blocking Submit; kUnavailable when the queue is full or the
  /// service is shut down.
  Result<std::future<ApplyOutcome>> TrySubmit(AtomicOp op);

  /// Submit + wait: the synchronous convenience the CLI front end uses.
  ApplyOutcome Apply(AtomicOp op);

  /// Enqueues a full plan rebuild: when the writer thread reaches it, the
  /// current instance is re-solved from scratch with the sharded engine
  /// (SolveSharded) and the service's plan replaced by the result. Rides
  /// the same FIFO queue as atomic ops, so it serializes cleanly between
  /// them. NOT journaled — the journal records externally-observed EBSN
  /// changes only, and replaying them reconstructs a valid served state;
  /// re-issue the rebuild after recovery if the rebuilt plan is wanted.
  std::future<RebuildOutcome> SubmitRebuild(ShardedGepcOptions options = {});

  /// SubmitRebuild + wait.
  RebuildOutcome Rebuild(ShardedGepcOptions options = {});

  /// Enqueues a shard rebalance: when the writer thread reaches it, the
  /// tracker's Voronoi sites are re-centered with a Lloyd run warm-started
  /// from the current sites and the live partition rebuilt. Rides the FIFO
  /// queue, so it sees exactly the ops ahead of it. Like rebuilds, NOT
  /// journaled — the partition is derived state that replay reconstructs.
  /// Fails with kFailedPrecondition when options.rebalance_shards <= 1.
  std::future<RebalanceOutcome> SubmitRebalance();

  /// SubmitRebalance + wait.
  RebalanceOutcome Rebalance();

  /// Enqueues a durable checkpoint: when the writer thread reaches it, the
  /// current (instance, plan, sequence) is written as a GCKP1 file and
  /// published atomically (temp -> fsync -> rename), older checkpoints
  /// beyond options.checkpoint_retain are pruned, and the journal is
  /// compacted through the oldest surviving checkpoint's version. Rides the
  /// FIFO queue, so it captures exactly the ops ahead of it.
  std::future<CheckpointOutcome> SubmitCheckpoint();

  /// SubmitCheckpoint + wait.
  CheckpointOutcome Checkpoint();

  /// Called by the writer thread immediately after an op's journal row is
  /// committed (its newline reached disk) and its sequence assigned —
  /// before the op is applied or its future resolved. Replication fans the
  /// row out to followers from here. The hook must be fast and must not
  /// call back into the service's write path.
  using CommitHook = std::function<void(uint64_t sequence, const AtomicOp& op)>;

  /// Installs (or clears, with nullptr) the commit hook. Thread-safe; ops
  /// committed before the hook is set are only visible through the journal.
  void SetCommitHook(CommitHook hook);

  /// Replication retention floor: checkpoint pruning keeps the newest
  /// checkpoint at or below `pin` and journal compaction never advances the
  /// base past it, so a follower synced at `pin` can still bridge to the
  /// live tail. kNoRetentionPin (the default) releases the floor.
  void SetRetentionPin(uint64_t pin);
  uint64_t retention_pin() const;

  /// Sequence of the last committed (journaled) op; ops beyond it are still
  /// queued. The snapshot version reaches it once that op is applied.
  uint64_t committed_sequence() const {
    return committed_sequence_.load(std::memory_order_acquire);
  }

  /// Latest published snapshot; never null. Hold it as long as you like.
  std::shared_ptr<const ServiceSnapshot> snapshot() const;

  /// Renders `user`'s current itinerary from the latest snapshot.
  Result<Itinerary> QueryUser(UserId user) const;

  /// One coherent read of all built-in counters.
  ServiceStats Stats() const;

  /// Blocks until every operation submitted before this call has been
  /// applied or rejected. The writer publishes a snapshot after each
  /// request and before resolving it, so after Drain the snapshot (and
  /// Stats) covers every drained request.
  void Drain();

  /// Stops accepting, drains the queue, joins the writer thread, closes
  /// the journal. Idempotent; the destructor calls it.
  void Shutdown();

  /// False once Shutdown has begun.
  bool accepting() const { return accepting_.load(std::memory_order_acquire); }

 private:
  /// One queued request per public Submit*: its inputs and the promise its
  /// caller waits on.
  struct OpRequest {
    AtomicOp op;
    std::promise<ApplyOutcome> promise;
  };
  struct RebuildRequest {
    ShardedGepcOptions options;
    std::promise<RebuildOutcome> promise;
  };
  struct CheckpointRequest {
    std::promise<CheckpointOutcome> promise;
  };
  struct RebalanceRequest {
    std::promise<RebalanceOutcome> promise;
  };
  struct PendingOp {
    std::variant<OpRequest, RebuildRequest, CheckpointRequest,
                 RebalanceRequest>
        request;
    /// Set at enqueue when observability is on; feeds the queue-wait
    /// histogram when the writer dequeues. Epoch (zero) when off.
    std::chrono::steady_clock::time_point enqueue_time{};
  };

  /// `boot` carries what Recover learned (recovery info, the checkpoint it
  /// booted from); Create passes zeros.
  PlanningService(IncrementalPlanner planner, ServiceOptions options,
                  std::optional<Journal> journal, uint64_t base_sequence,
                  ServiceWriterStats boot);

  /// The blocking enqueue behind Submit, SubmitRebuild, SubmitCheckpoint
  /// and SubmitRebalance: takes a drain ticket and queues the request, or
  /// resolves it with a "service is shut down" outcome once the queue is
  /// closed.
  template <typename Request>
  auto Enqueue(Request request) -> decltype(request.promise.get_future());

  void WriterLoop();
  ApplyOutcome ApplyOne(const AtomicOp& op);
  RebuildOutcome ApplyRebuild(const ShardedGepcOptions& options);
  /// Writes + publishes the checkpoint, prunes, compacts the journal.
  /// Writer thread only. Returns the outcome (never throws the service).
  CheckpointOutcome DoCheckpoint();
  /// Runs the tracker rebalance. Writer thread only.
  RebalanceOutcome DoRebalance();
  /// Publishes the current state with a copy of stats_. Writer thread only:
  /// the constructor, then WriterLoop once per finished request.
  void PublishSnapshot();
  void FinishOne();  // bookkeeping for Drain()

  const ServiceOptions options_;
  IncrementalPlanner planner_;  // touched only by the writer thread
  std::optional<Journal> journal_;
  uint64_t sequence_;  // ops journaled so far (incl. recovered ones)
  uint64_t ops_since_checkpoint_ = 0;  // writer thread only
  // Live shard-rebalance tracker (writer thread only once the writer has
  // started; constructed before it). nullopt when rebalance_shards <= 1.
  std::optional<ShardTracker> tracker_;
  uint64_t ops_since_rebalance_check_ = 0;  // writer thread only
  // Writer thread only; every snapshot carries a copy, which is all that
  // Stats() reads of them.
  ServiceWriterStats stats_;
  std::atomic<uint64_t> committed_sequence_{0};
  // Replication hooks (src/repl/): retention floor consulted by
  // DoCheckpoint, and the per-commit fan-out callback.
  std::atomic<uint64_t> retention_pin_{UINT64_MAX};
  mutable std::mutex commit_hook_mu_;
  CommitHook commit_hook_;

  BoundedQueue<PendingOp> queue_;
  ServiceMetrics metrics_;

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const ServiceSnapshot> snapshot_;

  // Drain accounting: ticket = ops accepted into the queue, finished = ops
  // the writer fully resolved.
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  uint64_t tickets_issued_ = 0;
  uint64_t tickets_finished_ = 0;

  std::atomic<bool> accepting_{true};
  std::once_flag shutdown_once_;
  std::thread writer_;
};

}  // namespace gepc

#endif  // GEPC_SERVICE_PLANNING_SERVICE_H_
