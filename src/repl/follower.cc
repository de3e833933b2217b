#include "repl/follower.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "ckpt/checkpoint.h"
#include "common/logging.h"
#include "fault/fault.h"
#include "repl/wire.h"
#include "service/journal.h"

namespace gepc {
namespace repl {

namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Hard cap on a shipped checkpoint: a desynchronized or hostile primary
/// cannot make the follower buffer unbounded chunk bytes.
constexpr uint64_t kMaxCheckpointBytes = 1ull << 31;  // 2 GiB

}  // namespace

Follower::Follower(FollowerOptions options, ServeRole* role)
    : options_(std::move(options)), role_(role) {
  auto& registry = obs::Registry::Global();
  lag_rows_gauge_ = registry.GetGauge(
      "gepc_repl_lag_rows", "Committed rows the primary is ahead of us");
  lag_ms_gauge_ = registry.GetGauge(
      "gepc_repl_lag_ms", "How long the replica has continuously been behind");
  rows_applied_total_ = registry.GetCounter("gepc_repl_rows_applied_total",
                                            "Tailed rows applied locally");
  reconnects_total_ = registry.GetCounter(
      "gepc_repl_reconnects_total", "Times the primary connection was rebuilt");
  promotions_total_ = registry.GetCounter(
      "gepc_repl_promotions_total", "Follower-to-primary promotions");
  checkpoints_received_total_ =
      registry.GetCounter("gepc_repl_checkpoints_received_total",
                          "Checkpoints bootstrapped from the primary");
  resyncs_total_ = registry.GetCounter(
      "gepc_repl_resyncs_total", "Tail desyncs that forced a fresh sync");
  apply_ms_ = registry.GetHistogram("gepc_repl_apply_ms",
                                    "Tailed-row apply latency");
}

Result<std::unique_ptr<Follower>> Follower::Start(FollowerOptions options,
                                                  ServeRole* role) {
  if (role == nullptr) {
    return Status::InvalidArgument("follower needs a ServeRole to flip");
  }
  if (options.journal_path.empty() || options.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "follower needs both --journal and --checkpoint-dir (its promotion "
        "and crash recovery depend on local durability)");
  }
  if (options.primary_port <= 0) {
    return Status::InvalidArgument("follower needs the primary's port");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.checkpoint_dir, ec);
  if (ec) {
    return Status::Internal("cannot create " + options.checkpoint_dir + ": " +
                            ec.message());
  }
  role->primary =
      options.primary_host + ":" + std::to_string(options.primary_port);
  role->follower.store(true, std::memory_order_release);

  std::unique_ptr<Follower> follower(new Follower(std::move(options), role));
  const int64_t deadline =
      NowMs() + std::max(1, follower->options_.bootstrap_timeout_ms);
  int backoff = std::max(1, follower->options_.reconnect_backoff_initial_ms);
  Status last = Status::OK();
  for (;;) {
    last = follower->BootstrapOnce();
    if (last.ok()) break;
    follower->Disconnect();
    if (NowMs() + backoff > deadline) {
      role->follower.store(false, std::memory_order_release);
      return Status(last.code(), "bootstrap from " + role->primary +
                                     " failed: " + last.message());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    backoff = std::min(backoff * 2,
                       std::max(1, follower->options_.reconnect_backoff_max_ms));
  }
  follower->tail_thread_ = std::thread([f = follower.get()] { f->TailLoop(); });
  return follower;
}

Follower::~Follower() {
  Stop();
  service_.reset();
}

void Follower::Stop() {
  stop_.store(true, std::memory_order_release);
  client_.Interrupt();  // wakes the tail thread's receive
  if (tail_thread_.joinable()) tail_thread_.join();
  Disconnect();
}

FollowerStats Follower::stats() const {
  FollowerStats stats;
  stats.applied = applied_.load(std::memory_order_acquire);
  stats.primary_seen = primary_seen_.load(std::memory_order_acquire);
  stats.rows_applied = rows_applied_.load(std::memory_order_relaxed);
  stats.reconnects = reconnects_.load(std::memory_order_relaxed);
  stats.checkpoints_received =
      checkpoints_received_.load(std::memory_order_relaxed);
  stats.connected = connected_.load(std::memory_order_acquire);
  stats.promoted = promoted_.load(std::memory_order_acquire);
  return stats;
}

bool Follower::WaitForApplied(uint64_t want, int timeout_ms) const {
  const int64_t deadline = NowMs() + timeout_ms;
  while (applied_.load(std::memory_order_acquire) < want) {
    if (NowMs() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

void Follower::Disconnect() {
  client_.Close();
  connected_.store(false, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Bootstrap
// ---------------------------------------------------------------------------

Status Follower::RecoverLocalService() {
  ServiceOptions service_options;
  service_options.journal_path = options_.journal_path;
  service_options.checkpoint_dir = options_.checkpoint_dir;
  service_options.queue_capacity = options_.queue_capacity;
  service_options.checkpoint_every = options_.checkpoint_every;
  service_options.checkpoint_retain = options_.checkpoint_retain;
  auto recovered =
      PlanningService::Recover(Instance{}, Plan{}, std::move(service_options));
  GEPC_RETURN_IF_ERROR(recovered.status());
  service_ = std::move(*recovered);
  applied_.store(service_->committed_sequence(), std::memory_order_release);
  return Status::OK();
}

Status Follower::ReceiveCheckpoint(uint64_t version, uint64_t bytes) {
  if (bytes > kMaxCheckpointBytes) {
    return Status::InvalidArgument("shipped checkpoint implausibly large");
  }
  std::string blob;
  blob.reserve(bytes);
  while (blob.size() < bytes) {
    net::Frame frame;
    GEPC_RETURN_IF_ERROR(client_.Recv(&frame, options_.heartbeat_timeout_ms));
    if (frame.type != net::FrameType::kReplCkptChunk) {
      return Status::InvalidArgument("expected checkpoint chunk, got frame " +
                                     std::to_string(int(frame.type)));
    }
    blob += frame.payload;
  }
  if (blob.size() != bytes) {
    return Status::InvalidArgument("checkpoint chunk overshoot");
  }
  auto data = DecodeCheckpoint(blob);
  GEPC_RETURN_IF_ERROR(data.status());
  if (data->version != version) {
    return Status::InvalidArgument("checkpoint version mismatch");
  }
  // Publish locally through the same atomic temp->fsync->rename path the
  // primary used (the GCKP1 encoding is deterministic, so the local file is
  // byte-identical to the shipped one), then boot through standard crash
  // recovery — which also rebases a stale local journal past the new base.
  service_.reset();
  auto path = WriteCheckpoint(options_.checkpoint_dir, data->instance,
                              data->plan, version);
  GEPC_RETURN_IF_ERROR(path.status());
  GEPC_RETURN_IF_ERROR(RecoverLocalService());
  NotePrimarySeen(version);
  checkpoints_received_.fetch_add(1, std::memory_order_relaxed);
  checkpoints_received_total_->Increment();
  GEPC_LOG(Info) << "repl: bootstrapped from shipped checkpoint at version "
                 << version << " (" << bytes << " bytes)";
  return Status::OK();
}

Status Follower::BootstrapOnce() {
  if (service_ == nullptr) {
    // Local state is usable iff a checkpoint exists: the journal alone is a
    // delta stream with nothing to apply it to. (A fresh follower directory
    // takes the need_base path and gets its base shipped.)
    auto listed = ListCheckpoints(options_.checkpoint_dir);
    if (listed.ok() && !listed->empty()) {
      const Status local = RecoverLocalService();
      if (!local.ok()) {
        GEPC_LOG(Warning) << "repl: local recovery failed (" << local.message()
                          << "); bootstrapping from the primary instead";
      }
    }
  }
  GEPC_RETURN_IF_ERROR(
      client_.Connect(options_.primary_host, options_.primary_port));
  connected_.store(true, std::memory_order_release);
  GEPC_RETURN_IF_ERROR(
      client_.Handshake(options_.heartbeat_timeout_ms).status());
  SyncRequest request;
  request.have = applied_.load(std::memory_order_acquire);
  request.need_base = service_ == nullptr;
  GEPC_RETURN_IF_ERROR(
      client_.Send(net::FrameType::kReplSync, EncodeSyncRequest(request)));
  // Wait for the primary's first replication frame: it tells us whether
  // this sync bridges from our journal position (rows/heartbeat) or ships a
  // base checkpoint first. Everything after it belongs to the tail loop.
  net::Frame frame;
  GEPC_RETURN_IF_ERROR(client_.Recv(&frame, options_.heartbeat_timeout_ms));
  if (frame.type == net::FrameType::kReplCkptBegin) {
    GEPC_ASSIGN_OR_RETURN(const CkptBegin begin, ParseCkptBegin(frame.payload));
    return ReceiveCheckpoint(begin.version, begin.bytes);
  }
  if (service_ == nullptr) {
    return Status::InvalidArgument("primary sent a tail before base state");
  }
  return HandleTailFrame(frame);
}

// ---------------------------------------------------------------------------
// Tail
// ---------------------------------------------------------------------------

Status Follower::ApplyRow(const std::string& payload) {
  auto row = ParseRow(payload);
  GEPC_RETURN_IF_ERROR(row.status());
  const uint64_t applied = applied_.load(std::memory_order_acquire);
  if (row->sequence <= applied) return Status::OK();  // duplicate after resync
  if (row->sequence != applied + 1) {
    return Status::Unavailable("tail gap: have " + std::to_string(applied) +
                               ", got row " + std::to_string(row->sequence));
  }
  GEPC_INJECT_FAULT("repl.tail");
  const auto start = std::chrono::steady_clock::now();
  ApplyOutcome outcome = service_->Apply(std::move(row->op));
  if (outcome.sequence == 0) {
    // Never journaled locally (local IO failure / shutdown): the row is
    // not durable here, so a resync must re-fetch it.
    return Status::Unavailable("local apply failed: " + outcome.error);
  }
  if (outcome.sequence != row->sequence) {
    GEPC_LOG(Error) << "repl: sequence divergence — primary row "
                    << row->sequence << " landed locally as "
                    << outcome.sequence;
    return Status::Internal("sequence divergence");
  }
  applied_.store(row->sequence, std::memory_order_release);
  NotePrimarySeen(row->sequence);
  rows_applied_.fetch_add(1, std::memory_order_relaxed);
  rows_applied_total_->Increment();
  if (obs::Enabled()) {
    apply_ms_->Observe(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  }
  UpdateLagGauges();
  return Status::OK();
}

void Follower::NotePrimarySeen(uint64_t sequence) {
  // Only the tail thread (or Start's caller before it) writes this.
  if (sequence > primary_seen_.load(std::memory_order_acquire)) {
    primary_seen_.store(sequence, std::memory_order_release);
  }
}

void Follower::UpdateLagGauges() {
  const uint64_t seen = primary_seen_.load(std::memory_order_acquire);
  const uint64_t applied = applied_.load(std::memory_order_acquire);
  const int64_t lag =
      seen > applied ? static_cast<int64_t>(seen - applied) : 0;
  lag_rows_gauge_->Set(lag);
  if (lag == 0) {
    behind_since_ms_.store(0, std::memory_order_relaxed);
    lag_ms_gauge_->Set(0);
    return;
  }
  const int64_t now = NowMs();
  int64_t since = behind_since_ms_.load(std::memory_order_relaxed);
  if (since == 0) {
    behind_since_ms_.store(now, std::memory_order_relaxed);
    since = now;
  }
  lag_ms_gauge_->Set(now - since);
}

void Follower::TailLoop() {
  int backoff = std::max(1, options_.reconnect_backoff_initial_ms);
  int64_t disconnected_at = 0;  // 0 = currently connected
  while (!stop_.load(std::memory_order_acquire) &&
         !promoted_.load(std::memory_order_acquire)) {
    if (!client_.is_open()) {
      if (disconnected_at == 0) disconnected_at = NowMs();
      if (options_.promote_after_ms > 0 &&
          NowMs() - disconnected_at >= options_.promote_after_ms) {
        if (PromoteNow().ok()) return;
        // An injected repl.promote abort: keep reconnect attempts going and
        // retry the promotion on the next pass.
      }
      Status status = BootstrapOnce();
      if (stop_.load(std::memory_order_acquire)) return;
      if (!status.ok()) {
        Disconnect();
        resyncs_total_->Increment();
        GEPC_LOG(Warning) << "repl: resync with " << role_->primary
                          << " failed: " << status.message();
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
        backoff = std::min(backoff * 2,
                           std::max(1, options_.reconnect_backoff_max_ms));
        continue;
      }
      reconnects_.fetch_add(1, std::memory_order_relaxed);
      reconnects_total_->Increment();
      backoff = std::max(1, options_.reconnect_backoff_initial_ms);
      disconnected_at = 0;
    }
    net::Frame frame;
    Status status = client_.Recv(&frame, options_.heartbeat_timeout_ms);
    if (stop_.load(std::memory_order_acquire)) return;
    if (status.ok()) status = HandleTailFrame(frame);
    if (!status.ok()) {
      GEPC_LOG(Warning) << "repl: tail from " << role_->primary << " broke ("
                        << status.message() << "); resyncing";
      Disconnect();
    }
  }
}

Status Follower::HandleTailFrame(const net::Frame& frame) {
  switch (frame.type) {
    case net::FrameType::kReplRow:
      return ApplyRow(frame.payload);
    case net::FrameType::kReplHeartbeat: {
      GEPC_ASSIGN_OR_RETURN(const uint64_t version,
                            ParseHeartbeat(frame.payload));
      NotePrimarySeen(version);
      UpdateLagGauges();
      return Status::OK();
    }
    case net::FrameType::kReplError:
      return Status::Unavailable("primary declared the sync dead: " +
                                 ParseReplError(frame.payload));
    case net::FrameType::kReplCkptBegin: {
      // A mid-tail checkpoint offer means the primary compacted past our
      // position while we were disconnected AND our live service cannot
      // be hot-swapped (front ends hold its pointer). Drain the stream
      // and resync — retention pinning makes this path unreachable in
      // healthy operation; persistent arrival means operator restart.
      auto begin = ParseCkptBegin(frame.payload);
      GEPC_LOG(Error)
          << "repl: primary offers a checkpoint mid-tail (version "
          << (begin.ok() ? begin->version : 0)
          << "); cannot swap a live service — restart this follower to "
             "re-bootstrap";
      Disconnect();
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::max(1, options_.reconnect_backoff_max_ms)));
      return Status::FailedPrecondition("checkpoint offered mid-tail");
    }
    default:
      return Status::InvalidArgument("unexpected frame type " +
                                     std::to_string(int(frame.type)));
  }
}

// ---------------------------------------------------------------------------
// Promotion
// ---------------------------------------------------------------------------

Status Follower::PromoteNow() {
  std::lock_guard<std::mutex> lock(promote_mu_);
  if (promoted_.load(std::memory_order_acquire)) return Status::OK();
  if (service_ == nullptr) {
    return Status::FailedPrecondition("cannot promote before bootstrap");
  }
  GEPC_INJECT_FAULT("repl.promote");
  promoted_.store(true, std::memory_order_release);
  client_.Interrupt();  // wakes the tail thread to exit
  // Seal the replayed state: a checkpoint at the applied version proves the
  // state durable and rebases (compacts) the journal there, so the promoted
  // primary's journal starts at its own version.
  CheckpointOutcome sealed = service_->Checkpoint();
  if (!sealed.published) {
    GEPC_LOG(Warning) << "repl: promotion seal checkpoint failed ("
                      << sealed.error << "); promoting anyway — the journal "
                      << "still carries the full tail";
  }
  role_->follower.store(false, std::memory_order_release);
  promotions_total_->Increment();
  GEPC_LOG(Info) << "repl: promoted to primary at version "
                 << applied_.load(std::memory_order_acquire);
  return Status::OK();
}

}  // namespace repl
}  // namespace gepc
