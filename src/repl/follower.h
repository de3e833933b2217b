#ifndef GEPC_REPL_FOLLOWER_H_
#define GEPC_REPL_FOLLOWER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "service/dispatch.h"
#include "service/planning_service.h"

namespace gepc {
namespace repl {

struct FollowerOptions {
  /// The primary's replication endpoint (the same port gepc_serve --listen
  /// serves clients on).
  std::string primary_host = "127.0.0.1";
  int primary_port = 0;

  /// Local durability (both required): the follower journals every tailed
  /// row and checkpoints like a primary, so its own crash recovery — and
  /// its promotion — reuse the standard Recover path.
  std::string journal_path;
  std::string checkpoint_dir;

  /// Passed through to the local PlanningService.
  size_t queue_capacity = 1024;
  int checkpoint_every = 0;
  int checkpoint_retain = 2;

  /// No heartbeat/row for this long = the primary is gone: drop the
  /// connection and start reconnecting.
  int heartbeat_timeout_ms = 3000;
  /// Capped exponential backoff between reconnect attempts.
  int reconnect_backoff_initial_ms = 100;
  int reconnect_backoff_max_ms = 2000;
  /// Disconnected (not merely lagging) for this long = promote to primary.
  /// <= 0 disables automatic promotion (tests drive PromoteNow directly;
  /// operators may prefer manual failover).
  int promote_after_ms = 10000;
  /// Give up on the initial bootstrap after this long without a usable
  /// primary.
  int bootstrap_timeout_ms = 10000;
};

/// Counters a test or front end can read without scraping Prometheus text.
struct FollowerStats {
  uint64_t applied = 0;        ///< local sequence (== service version)
  uint64_t primary_seen = 0;   ///< newest sequence the primary advertised
  uint64_t rows_applied = 0;
  uint64_t reconnects = 0;
  uint64_t checkpoints_received = 0;
  bool connected = false;
  bool promoted = false;
};

/// The follower side of replication (docs/replication.md): connects to a
/// primary, bootstraps its local PlanningService from a shipped checkpoint
/// (or its own local state when the journal can bridge), then applies
/// tailed rows through the same single-writer apply loop a primary uses —
/// so reads, stats and metrics are served from immutable snapshots exactly
/// as on the primary, and the on-disk journal/checkpoint set stays
/// byte-compatible. Losing the primary past the deadline promotes: the
/// replayed state is sealed with a checkpoint and `role` flips, at which
/// point the dispatcher stops redirecting writes.
class Follower {
 public:
  /// Connects, bootstraps, and starts the tail thread. Blocks until the
  /// local service is live (serving reads) or the bootstrap deadline
  /// passes. `role` (not owned, must outlive the follower) is flipped to
  /// follower=true here and back to primary on promotion.
  static Result<std::unique_ptr<Follower>> Start(FollowerOptions options,
                                                 ServeRole* role);

  ~Follower();

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// The local service (never null after Start succeeds): front ends build
  /// their CommandDispatcher on it exactly as on a primary.
  PlanningService* service() const { return service_.get(); }

  /// Immediate manual promotion (the failover torture and the `promote`
  /// path use this; automatic promotion calls it on the tail thread).
  /// Idempotent; kUnavailable when an injected repl.promote fault aborts
  /// the attempt (the auto path retries on the next deadline).
  Status PromoteNow();

  bool promoted() const { return promoted_.load(std::memory_order_acquire); }

  FollowerStats stats() const;

  /// Polls until `applied` reaches `want`; false once `timeout_ms` passes.
  bool WaitForApplied(uint64_t want, int timeout_ms) const;

  /// Stops tailing and shuts the local service down. Idempotent; the
  /// destructor calls it.
  void Stop();

 private:
  Follower(FollowerOptions options, ServeRole* role);

  /// One connect + handshake + sync + bootstrap pass. On success the local
  /// service is live and `client_` carries the row tail.
  Status BootstrapOnce();
  /// Boots the local service through standard crash recovery from what is
  /// on local disk (checkpoint directory + journal). Both boot paths, local
  /// state and a shipped checkpoint, end here.
  Status RecoverLocalService();
  /// Receives a shipped checkpoint (begin frame already parsed), publishes
  /// it locally, and (re)starts the service from it.
  Status ReceiveCheckpoint(uint64_t version, uint64_t bytes);
  /// Applies one tailed row; any defect tears the connection for a resync.
  Status ApplyRow(const std::string& payload);
  /// Handles one frame of an established sync (row, heartbeat, error); a
  /// non-OK status means the connection must be rebuilt.
  Status HandleTailFrame(const net::Frame& frame);
  /// Raises primary_seen_ to `sequence` if it is newer.
  void NotePrimarySeen(uint64_t sequence);

  void TailLoop();
  void Disconnect();
  void UpdateLagGauges();

  const FollowerOptions options_;
  ServeRole* const role_;

  std::unique_ptr<PlanningService> service_;
  /// Owned by the tail thread (by Start's caller until then); other threads
  /// only Interrupt() it.
  net::FrameClient client_;

  std::atomic<uint64_t> applied_{0};
  std::atomic<uint64_t> primary_seen_{0};
  std::atomic<uint64_t> rows_applied_{0};
  std::atomic<uint64_t> reconnects_{0};
  std::atomic<uint64_t> checkpoints_received_{0};
  std::atomic<bool> connected_{false};
  std::atomic<bool> promoted_{false};
  std::atomic<bool> stop_{false};

  /// steady_clock ms when the lag first became nonzero (0 = caught up).
  std::atomic<int64_t> behind_since_ms_{0};

  mutable std::mutex promote_mu_;

  std::shared_ptr<obs::Gauge> lag_rows_gauge_;
  std::shared_ptr<obs::Gauge> lag_ms_gauge_;
  std::shared_ptr<obs::Counter> rows_applied_total_;
  std::shared_ptr<obs::Counter> reconnects_total_;
  std::shared_ptr<obs::Counter> promotions_total_;
  std::shared_ptr<obs::Counter> checkpoints_received_total_;
  std::shared_ptr<obs::Counter> resyncs_total_;
  std::shared_ptr<obs::Histogram> apply_ms_;

  std::thread tail_thread_;
};

}  // namespace repl
}  // namespace gepc

#endif  // GEPC_REPL_FOLLOWER_H_
