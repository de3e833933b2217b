#ifndef GEPC_REPL_SOURCE_H_
#define GEPC_REPL_SOURCE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "repl/wire.h"
#include "service/planning_service.h"

namespace gepc {
namespace repl {

struct ReplicationSourceOptions {
  /// The primary's own GOPS1 journal — the row source for follower catch-up.
  std::string journal_path;
  /// The primary's checkpoint directory — the base-state source for
  /// followers too far behind (or empty) to bridge from the journal.
  std::string checkpoint_dir;
  /// Cadence of kReplHeartbeat frames to live followers. Followers use the
  /// heartbeat both as a liveness deadline and as their lag reference.
  int heartbeat_interval_ms = 500;
};

/// One coherent read of the source's counters (tests; `stats` wiring).
struct ReplicationSourceStats {
  uint64_t followers = 0;  ///< currently registered (syncing + live)
  uint64_t syncs_started = 0;
  uint64_t syncs_completed = 0;
  uint64_t sync_errors = 0;
  uint64_t rows_shipped = 0;
  uint64_t checkpoints_shipped = 0;
};

/// The primary side of replication (docs/replication.md): turns a
/// PlanningService + NetServer into a replication endpoint. A follower's
/// kReplSync frame starts a catch-up on the sync worker thread — newest
/// checkpoint streamed in chunks when the journal can no longer bridge,
/// then the journal tail — after which the follower goes live and every
/// committed row is fanned out from the service's commit hook. Registered
/// followers pin checkpoint pruning and journal compaction (the service's
/// retention pin) so catch-up never races file deletion.
///
/// Wiring order matters: construct, Attach(server) BEFORE server->Start(),
/// and Stop() BEFORE the server stops (Stop detaches the commit hook, so no
/// fan-out can outlive the sockets it pushes to).
class ReplicationSource {
 public:
  ReplicationSource(PlanningService* service, ReplicationSourceOptions options);
  ~ReplicationSource();

  ReplicationSource(const ReplicationSource&) = delete;
  ReplicationSource& operator=(const ReplicationSource&) = delete;

  /// Installs the frame/disconnect hooks on `server`, the commit hook on
  /// the service, and starts the sync + heartbeat worker. Must be called
  /// before server->Start().
  Status Attach(net::NetServer* server);

  /// Detaches the commit hook, joins the worker, releases the retention
  /// pin. Idempotent; the destructor calls it.
  void Stop();

  ReplicationSourceStats stats() const;

 private:
  enum class Phase { kSyncing, kLive };

  struct FollowerState {
    Phase phase = Phase::kSyncing;
    /// Retention floor this follower needs: the journal must keep rows
    /// after it, and a checkpoint at or below it must survive pruning.
    uint64_t pin = 0;
    /// Highest row sequence pushed to this connection.
    uint64_t last_sent = 0;
    /// Rows committed while the catch-up was still streaming, held back so
    /// the follower sees every sequence exactly once and in order.
    std::vector<std::pair<uint64_t, std::string>> pending;
  };

  /// Event-loop thread: consumes kReplSync frames.
  bool OnFrame(uint64_t conn_id, net::Frame frame);
  /// Event-loop thread: drops the registration, recomputes the pin.
  void OnDisconnect(uint64_t conn_id);
  /// Service writer thread: fans one committed row out to live followers
  /// and buffers it for syncing ones.
  void OnCommit(uint64_t sequence, const AtomicOp& op);

  void WorkerLoop();
  void RunSync(uint64_t conn_id, const SyncRequest& request);
  /// Streams the newest checkpoint to `conn_id`; returns its version (the
  /// new row floor) or the failure.
  Result<uint64_t> ShipCheckpoint(uint64_t conn_id, uint64_t journal_base);
  void FailSync(uint64_t conn_id, const std::string& message);
  void SendHeartbeats();
  /// mu_ held: pushes min(pin) over all followers into the service.
  void UpdatePinLocked();

  PlanningService* const service_;
  const ReplicationSourceOptions options_;
  net::NetServer* server_ = nullptr;

  mutable std::mutex mu_;
  std::map<uint64_t, FollowerState> followers_;
  std::deque<std::pair<uint64_t, SyncRequest>> sync_queue_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;

  uint64_t syncs_started_ = 0;
  uint64_t syncs_completed_ = 0;
  uint64_t sync_errors_ = 0;
  uint64_t rows_shipped_ = 0;
  uint64_t checkpoints_shipped_ = 0;

  std::shared_ptr<obs::Gauge> followers_gauge_;
  std::shared_ptr<obs::Counter> rows_shipped_total_;
  std::shared_ptr<obs::Counter> checkpoints_shipped_total_;
  std::shared_ptr<obs::Counter> syncs_total_;
  std::shared_ptr<obs::Counter> sync_errors_total_;
  std::shared_ptr<obs::Histogram> sync_ms_;

  std::thread worker_;
};

}  // namespace repl
}  // namespace gepc

#endif  // GEPC_REPL_SOURCE_H_
