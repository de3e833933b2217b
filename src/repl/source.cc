#include "repl/source.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

#include "ckpt/checkpoint.h"
#include "common/logging.h"
#include "fault/fault.h"
#include "service/journal.h"

namespace gepc {
namespace repl {

namespace {

/// kReplCkptChunk payload size while streaming a checkpoint.
constexpr size_t kChunkBytes = 256 * 1024;

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in && !in.eof()) return Status::Internal("read failed: " + path);
  return buffer.str();
}

}  // namespace

ReplicationSource::ReplicationSource(PlanningService* service,
                                     ReplicationSourceOptions options)
    : service_(service), options_(std::move(options)) {
  auto& registry = obs::Registry::Global();
  followers_gauge_ = registry.GetGauge(
      "gepc_repl_followers", "Followers currently registered on this primary");
  rows_shipped_total_ = registry.GetCounter(
      "gepc_repl_rows_shipped_total", "Journal rows pushed to followers");
  checkpoints_shipped_total_ =
      registry.GetCounter("gepc_repl_checkpoints_shipped_total",
                          "Checkpoints streamed to bootstrapping followers");
  syncs_total_ = registry.GetCounter("gepc_repl_syncs_total",
                                     "Follower catch-up syncs started");
  sync_errors_total_ = registry.GetCounter(
      "gepc_repl_sync_errors_total", "Follower syncs that ended in ReplError");
  sync_ms_ = registry.GetHistogram("gepc_repl_sync_ms",
                                   "Follower catch-up sync latency");
}

ReplicationSource::~ReplicationSource() { Stop(); }

Status ReplicationSource::Attach(net::NetServer* server) {
  if (server == nullptr) {
    return Status::InvalidArgument("replication source needs a server");
  }
  if (options_.journal_path.empty() || options_.checkpoint_dir.empty()) {
    return Status::InvalidArgument(
        "replication needs both a journal and a checkpoint dir");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) {
      return Status::FailedPrecondition("replication source already attached");
    }
    started_ = true;
    stop_ = false;
  }
  server_ = server;
  server->SetFrameHook([this](uint64_t conn_id, net::Frame frame) {
    return OnFrame(conn_id, std::move(frame));
  });
  server->SetDisconnectHook([this](uint64_t conn_id) { OnDisconnect(conn_id); });
  service_->SetCommitHook([this](uint64_t sequence, const AtomicOp& op) {
    OnCommit(sequence, op);
  });
  worker_ = std::thread([this] { WorkerLoop(); });
  return Status::OK();
}

void ReplicationSource::Stop() {
  bool was_started = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    was_started = started_;
    // One-shot: the destructor calls Stop() again, typically after the
    // caller has already torn down the service — a second pass must not
    // touch service_.
    started_ = false;
    stop_ = true;
  }
  cv_.notify_all();
  if (!was_started) return;
  // Detach the commit hook first: after Stop returns, no writer-thread
  // callback can reach this object (the caller is about to destroy it or
  // the server it pushes to).
  service_->SetCommitHook(nullptr);
  if (worker_.joinable()) worker_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    followers_.clear();
    sync_queue_.clear();
    followers_gauge_->Set(0);
  }
  service_->SetRetentionPin(kNoRetentionPin);
}

ReplicationSourceStats ReplicationSource::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ReplicationSourceStats stats;
  stats.followers = followers_.size();
  stats.syncs_started = syncs_started_;
  stats.syncs_completed = syncs_completed_;
  stats.sync_errors = sync_errors_;
  stats.rows_shipped = rows_shipped_;
  stats.checkpoints_shipped = checkpoints_shipped_;
  return stats;
}

bool ReplicationSource::OnFrame(uint64_t conn_id, net::Frame frame) {
  if (frame.type != net::FrameType::kReplSync) return false;
  auto request = ParseSyncRequest(frame.payload);
  if (!request.ok()) {
    server_->Push(conn_id,
                  net::EncodeFrame(net::FrameType::kReplError,
                                   EncodeReplError(request.status().message())));
    return true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  sync_queue_.emplace_back(conn_id, *request);
  cv_.notify_all();
  return true;
}

void ReplicationSource::OnDisconnect(uint64_t conn_id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (followers_.erase(conn_id) > 0) {
    followers_gauge_->Set(static_cast<int64_t>(followers_.size()));
    UpdatePinLocked();
  }
}

void ReplicationSource::OnCommit(uint64_t sequence, const AtomicOp& op) {
  std::lock_guard<std::mutex> lock(mu_);
  if (followers_.empty()) return;
  auto payload = EncodeRow(sequence, op);
  if (!payload.ok()) {
    GEPC_LOG(Error) << "repl: cannot encode row " << sequence << ": "
                    << payload.status().message();
    return;
  }
  const std::string frame =
      net::EncodeFrame(net::FrameType::kReplRow, *payload);
  for (auto& [conn_id, follower] : followers_) {
    if (follower.phase == Phase::kLive) {
      server_->Push(conn_id, frame);
      follower.last_sent = sequence;
      // A live follower's retention floor rides the fan-out: everything up
      // to `sequence` is already on (or in flight to) its socket, so the
      // journal only has to keep the tail past it for a quick reconnect.
      follower.pin = sequence;
      ++rows_shipped_;
      rows_shipped_total_->Increment();
    } else {
      follower.pending.emplace_back(sequence, frame);
    }
  }
  UpdatePinLocked();
}

void ReplicationSource::WorkerLoop() {
  const auto heartbeat =
      std::chrono::milliseconds(std::max(1, options_.heartbeat_interval_ms));
  auto next_heartbeat = std::chrono::steady_clock::now() + heartbeat;
  for (;;) {
    std::pair<uint64_t, SyncRequest> job;
    bool have_job = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_until(lock, next_heartbeat,
                     [&] { return stop_ || !sync_queue_.empty(); });
      if (stop_) return;
      if (!sync_queue_.empty()) {
        job = sync_queue_.front();
        sync_queue_.pop_front();
        have_job = true;
      }
    }
    if (have_job) {
      const auto start = std::chrono::steady_clock::now();
      RunSync(job.first, job.second);
      if (obs::Enabled()) {
        sync_ms_->Observe(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
      }
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= next_heartbeat) {
      SendHeartbeats();
      next_heartbeat = now + heartbeat;
    }
  }
}

void ReplicationSource::FailSync(uint64_t conn_id, const std::string& message) {
  GEPC_LOG(Warning) << "repl: sync for conn " << conn_id
                    << " failed: " << message;
  server_->Push(conn_id, net::EncodeFrame(net::FrameType::kReplError,
                                          EncodeReplError(message)));
  std::lock_guard<std::mutex> lock(mu_);
  ++sync_errors_;
  sync_errors_total_->Increment();
  if (followers_.erase(conn_id) > 0) {
    followers_gauge_->Set(static_cast<int64_t>(followers_.size()));
    UpdatePinLocked();
  }
}

Result<uint64_t> ReplicationSource::ShipCheckpoint(uint64_t conn_id,
                                                   uint64_t journal_base) {
  auto listed = ListCheckpoints(options_.checkpoint_dir);
  GEPC_RETURN_IF_ERROR(listed.status());
  // The newest checkpoint must be able to bridge to the journal tail
  // (version >= journal base — the compaction invariant guarantees it for
  // any checkpoint that exists). No checkpoint at all means the primary has
  // never published one: cut one now so the follower has a base.
  if (listed->empty() || listed->front().version < journal_base) {
    CheckpointOutcome forced = service_->Checkpoint();
    if (!forced.published) {
      return Status::Internal("cannot publish bootstrap checkpoint: " +
                              forced.error);
    }
    listed = ListCheckpoints(options_.checkpoint_dir);
    GEPC_RETURN_IF_ERROR(listed.status());
    if (listed->empty()) {
      return Status::Internal("checkpoint published but none listed");
    }
  }
  const CheckpointRef chosen = listed->front();
  // Pin the chosen version before reading the file: from here on, pruning
  // keeps it on disk until this follower goes live.
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = followers_.find(conn_id);
    if (it == followers_.end()) {
      return Status::Unavailable("follower disconnected during sync");
    }
    it->second.pin = chosen.version;
    UpdatePinLocked();
  }
  auto bytes = ReadFileBytes(chosen.path);
  GEPC_RETURN_IF_ERROR(bytes.status());
  CkptBegin begin;
  begin.version = chosen.version;
  begin.bytes = bytes->size();
  server_->Push(conn_id, net::EncodeFrame(net::FrameType::kReplCkptBegin,
                                          EncodeCkptBegin(begin)));
  for (size_t offset = 0; offset < bytes->size(); offset += kChunkBytes) {
    // Chunks compress when that shrinks them (the decoder autodetects);
    // rows and control frames go raw, far below the compressor's minimum.
    server_->Push(conn_id,
                  net::EncodeFrame(
                      net::FrameType::kReplCkptChunk,
                      std::string_view(*bytes).substr(offset, kChunkBytes),
                      /*allow_compression=*/true));
  }
  // An empty-state checkpoint still needs its (empty) chunk stream ended;
  // the begin frame's byte count already tells the follower it is complete.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++checkpoints_shipped_;
  }
  checkpoints_shipped_total_->Increment();
  return chosen.version;
}

void ReplicationSource::RunSync(uint64_t conn_id, const SyncRequest& request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++syncs_started_;
    // (Re)register the follower as syncing. Its pin freezes retention at
    // what it claims to have, so the journal prefix it needs survives the
    // checkpoints other activity may publish while we stream.
    FollowerState& follower = followers_[conn_id];
    follower.phase = Phase::kSyncing;
    follower.pin = request.have;
    follower.last_sent = 0;
    follower.pending.clear();
    followers_gauge_->Set(static_cast<int64_t>(followers_.size()));
    UpdatePinLocked();
  }
  syncs_total_->Increment();

  if (Status injected = fault::Inject("repl.ship"); !injected.ok()) {
    FailSync(conn_id, injected.message());
    return;
  }

  const uint64_t committed = service_->committed_sequence();
  if (request.have > committed) {
    FailSync(conn_id, "follower claims sequence " +
                          std::to_string(request.have) +
                          " ahead of primary at " + std::to_string(committed));
    return;
  }

  auto scan = ScanJournalFile(options_.journal_path);
  JournalScan journal;
  if (scan.ok()) {
    journal = std::move(*scan);
  } else if (scan.status().code() != StatusCode::kNotFound) {
    FailSync(conn_id, "journal scan failed: " + scan.status().message());
    return;
  }

  // Row floor: ship journal rows with sequence > floor. A follower that
  // cannot bridge from the journal (or has no base at all) gets the newest
  // checkpoint first and the floor moves up to its version.
  uint64_t floor = request.have;
  if (request.need_base || request.have < journal.base_sequence) {
    auto shipped = ShipCheckpoint(conn_id, journal.base_sequence);
    if (!shipped.ok()) {
      FailSync(conn_id, shipped.status().message());
      return;
    }
    floor = *shipped;
    // The forced checkpoint (if any) may be newer than the scan; re-scan so
    // the tail we ship lines up with the floor.
    if (floor > journal.base_sequence + journal.ops.size()) {
      auto rescan = ScanJournalFile(options_.journal_path);
      if (rescan.ok()) journal = std::move(*rescan);
    }
  }

  uint64_t last = floor;
  uint64_t shipped_rows = 0;
  for (size_t i = 0; i < journal.ops.size(); ++i) {
    const uint64_t sequence = journal.base_sequence + i + 1;
    if (sequence <= floor) continue;
    auto payload = EncodeRow(sequence, journal.ops[i]);
    if (!payload.ok()) {
      FailSync(conn_id, "cannot encode journal row " +
                            std::to_string(sequence) + ": " +
                            payload.status().message());
      return;
    }
    server_->Push(conn_id, net::EncodeFrame(net::FrameType::kReplRow, *payload));
    last = sequence;
    ++shipped_rows;
  }

  // Go live: flush rows that committed while we streamed (deduplicated
  // against what the scan already covered), then hand the connection to the
  // commit hook's fan-out.
  std::lock_guard<std::mutex> lock(mu_);
  rows_shipped_ += shipped_rows;
  rows_shipped_total_->Increment(shipped_rows);
  auto it = followers_.find(conn_id);
  if (it == followers_.end()) return;  // disconnected mid-sync
  FollowerState& follower = it->second;
  for (auto& [sequence, frame] : follower.pending) {
    if (sequence <= last) continue;
    server_->Push(conn_id, frame);
    last = sequence;
    ++rows_shipped_;
    rows_shipped_total_->Increment();
  }
  follower.pending.clear();
  follower.phase = Phase::kLive;
  follower.last_sent = last;
  follower.pin = last;
  UpdatePinLocked();
  ++syncs_completed_;
  server_->Push(conn_id,
                net::EncodeFrame(net::FrameType::kReplHeartbeat,
                                 EncodeHeartbeat(service_->committed_sequence())));
}

void ReplicationSource::SendHeartbeats() {
  const uint64_t committed = service_->committed_sequence();
  const std::string frame = net::EncodeFrame(net::FrameType::kReplHeartbeat,
                                             EncodeHeartbeat(committed));
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [conn_id, follower] : followers_) {
    if (follower.phase == Phase::kLive) server_->Push(conn_id, frame);
  }
}

void ReplicationSource::UpdatePinLocked() {
  uint64_t pin = kNoRetentionPin;
  for (const auto& [conn_id, follower] : followers_) {
    pin = std::min(pin, follower.pin);
  }
  service_->SetRetentionPin(pin);
}

}  // namespace repl
}  // namespace gepc
