#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "fault/fault.h"
#include "service/jsonl.h"

namespace gepc {
namespace net {
namespace {

constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr size_t kReadChunk = 64 * 1024;
/// The read queue holds this many times the op queue's capacity: reads are
/// cheap snapshot queries and should not bounce while writes still fit.
constexpr size_t kReadQueueFactor = 4;

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

std::string StatusPayload(const std::string& code, const std::string& error) {
  JsonWriter writer;
  writer.Add("ok", false);
  writer.Add("code", code);
  writer.Add("error", error);
  return writer.Finish();
}

}  // namespace

/// One client connection; owned by the event-loop thread exclusively
/// (workers refer to connections only by id through the completion queue,
/// so a connection that dies mid-request simply drops its completions).
struct NetServer::Connection {
  uint64_t id = 0;
  int fd = -1;
  uint64_t session = 0;  ///< 0 until the Hello/Welcome handshake
  FrameDecoder decoder;
  std::string outbuf;
  size_t out_off = 0;
  bool epollout_armed = false;
  /// Close as soon as the outbuf drains (set after protocol errors so the
  /// Status frame still reaches the peer).
  bool closing = false;
};

NetServer::NetServer(NetServerOptions options, Handler handler, Router router,
                     std::string welcome_fields)
    : options_(std::move(options)),
      handler_(std::move(handler)),
      router_(std::move(router)),
      welcome_fields_(std::move(welcome_fields)),
      read_jobs_(options_.op_queue_capacity * kReadQueueFactor),
      op_jobs_(options_.op_queue_capacity) {
  auto& reg = obs::Registry::Global();
  active_connections_ = reg.GetGauge(
      "gepc_net_active_connections", "Open client connections");
  connections_total_ = reg.GetCounter(
      "gepc_net_connections_total", "Client connections accepted");
  frames_in_total_ =
      reg.GetCounter("gepc_net_frames_in_total", "Frames received");
  frames_out_total_ =
      reg.GetCounter("gepc_net_frames_out_total", "Frames sent");
  bytes_in_total_ =
      reg.GetCounter("gepc_net_bytes_in_total", "Payload bytes received");
  bytes_out_total_ =
      reg.GetCounter("gepc_net_bytes_out_total", "Payload bytes sent");
  rejected_ops_total_ = reg.GetCounter(
      "gepc_net_rejected_ops_total",
      "Requests rejected with a Status frame by admission control");
  protocol_errors_total_ = reg.GetCounter(
      "gepc_net_protocol_errors_total",
      "Malformed frames / commands before the handshake");
  connections_refused_total_ = reg.GetCounter(
      "gepc_net_connections_refused_total",
      "Connections turned away over max_connections");
  request_ms_ = reg.GetHistogram(
      "gepc_net_request_ms",
      "Frame receipt to response enqueue, per request");
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen host '" + options_.host + "'");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind " + options_.host + ":" +
                 std::to_string(options_.port));
  }
  if (listen(listen_fd_, 512) != 0) return Errno("listen");

  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return Errno("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenTag;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Errno("epoll_ctl(listen)");
  }
  ev.data.u64 = kWakeTag;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Errno("epoll_ctl(wake)");
  }

  for (int i = 0; i < std::max(1, options_.read_workers); ++i) {
    workers_.emplace_back([this] { WorkerLoop(&read_jobs_); });
  }
  for (int i = 0; i < std::max(1, options_.op_workers); ++i) {
    workers_.emplace_back([this] { WorkerLoop(&op_jobs_); });
  }
  event_thread_ = std::thread([this] { EventLoop(); });
  return Status::OK();
}

void NetServer::WakeLoop() {
  if (wake_fd_ < 0) return;
  const uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void NetServer::WaitForStop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [&] { return stopped_.load(); });
}

void NetServer::Stop() {
  std::call_once(stop_once_, [&] {
    stop_requested_.store(true, std::memory_order_release);
    WakeLoop();
    if (event_thread_.joinable()) event_thread_.join();
    read_jobs_.Close();
    op_jobs_.Close();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    for (auto& [id, conn] : conns_) {
      if (conn->fd >= 0) {
        close(conn->fd);
        active_connections_->Add(-1);
      }
    }
    conns_.clear();
    if (listen_fd_ >= 0) close(listen_fd_);
    if (epoll_fd_ >= 0) close(epoll_fd_);
    if (wake_fd_ >= 0) close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    stopped_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
    }
    stop_cv_.notify_all();
  });
}

NetServerCounters NetServer::Counters() const {
  NetServerCounters counters;
  counters.connections_accepted = connections_total_->value();
  counters.active_connections = active_connections_->value();
  counters.frames_in = frames_in_total_->value();
  counters.frames_out = frames_out_total_->value();
  counters.rejected_ops = rejected_ops_total_->value();
  counters.protocol_errors = protocol_errors_total_->value();
  counters.connections_refused = connections_refused_total_->value();
  return counters;
}

void NetServer::WorkerLoop(BoundedQueue<Job>* queue) {
  Job job;
  while (queue->Pop(&job)) {
    HandlerResult result = handler_(job.request);
    if (obs::Enabled()) {
      request_ms_->Observe(std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - job.received)
                               .count());
    }
    Completion completion;
    completion.conn_id = job.conn_id;
    completion.shutdown = result.shutdown;
    completion.frame = EncodeFrame(FrameType::kResponse, result.response,
                                   options_.compress);
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(std::move(completion));
    }
    WakeLoop();
  }
}

void NetServer::EventLoop() {
  constexpr int kMaxEvents = 256;
  epoll_event events[kMaxEvents];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int n = epoll_wait(epoll_fd_, events, kMaxEvents, /*timeout=*/500);
    if (n < 0) {
      if (errno == EINTR) continue;
      GEPC_LOG(Error) << "epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenTag) {
        HandleAccept();
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t drained;
        while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed while events were pending
      Connection* conn = it->second.get();
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(conn);
        continue;
      }
      if (events[i].events & EPOLLIN) {
        HandleReadable(conn);
        if (conns_.find(tag) == conns_.end()) continue;
      }
      if (events[i].events & EPOLLOUT) {
        TryFlush(conn);
      }
    }
    DrainCompletions();
  }
  // Last gasp: deliver anything already queued (e.g. the shutdown ack)
  // without blocking the teardown on a slow peer.
  DrainCompletions();
}

void NetServer::HandleAccept() {
  while (true) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      GEPC_LOG(Warning) << "accept: " << std::strerror(errno);
      return;
    }
    // net.accept (docs/fault-injection.md): a firing fault drops the
    // freshly accepted connection, simulating post-accept resource
    // exhaustion. The accept loop itself keeps running.
    if (!fault::Inject("net.accept").ok()) {
      close(fd);
      continue;
    }
    if (stop_requested_.load(std::memory_order_acquire) ||
        static_cast<int>(conns_.size()) >= options_.max_connections) {
      // Over capacity: best-effort Status frame, then goodbye. Never
      // blocks — the frame is small and the socket buffer empty. Counted
      // first, so the refusal is in the counters once the client sees it.
      connections_refused_total_->Increment();
      const std::string frame = EncodeFrame(
          FrameType::kStatus,
          StatusPayload("unavailable", "server full: " +
                                           std::to_string(conns_.size()) +
                                           " connections"));
      [[maybe_unused]] const ssize_t n = write(fd, frame.data(), frame.size());
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      GEPC_LOG(Warning) << "epoll_ctl(add conn): " << std::strerror(errno);
      close(fd);
      continue;
    }
    connections_total_->Increment();
    active_connections_->Add(1);
    conns_.emplace(conn->id, std::move(conn));
  }
}

void NetServer::HandleReadable(Connection* conn) {
  char buffer[kReadChunk];
  while (true) {
    // net.read: a firing fault poisons this connection's read path, as a
    // peer reset would.
    if (!fault::Inject("net.read").ok()) {
      CloseConnection(conn);
      return;
    }
    const ssize_t n = read(conn->fd, buffer, sizeof(buffer));
    if (n == 0) {
      CloseConnection(conn);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(conn);
      return;
    }
    bytes_in_total_->Increment(static_cast<uint64_t>(n));
    conn->decoder.Feed(buffer, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof(buffer)) break;
  }

  // SendBytes/TryFlush may destroy the connection on a write error, so
  // every step below re-validates through the id before touching `conn`.
  const uint64_t id = conn->id;
  Frame frame;
  Status error;
  while (true) {
    const FrameDecoder::Next next = conn->decoder.Pop(&frame, &error);
    if (next == FrameDecoder::Next::kNeedMore) break;
    if (next == FrameDecoder::Next::kError) {
      protocol_errors_total_->Increment();
      conn->closing = true;  // Status first, then goodbye
      SendStatus(conn, StatusCodeToString(error.code()), error.message());
      return;
    }
    frames_in_total_->Increment();
    HandleFrame(conn, std::move(frame));
    if (conns_.find(id) == conns_.end()) return;  // closed underneath
    if (conn->closing) return;
  }
}

void NetServer::HandleFrame(Connection* conn, Frame frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      if (conn->session != 0) {
        protocol_errors_total_->Increment();
        conn->closing = true;
        SendStatus(conn, "failed_precondition", "session already open");
        return;
      }
      conn->session = next_session_id_++;
      JsonWriter welcome;
      welcome.Add("ok", true);
      welcome.Add("session", conn->session);
      welcome.Add("frame_version", static_cast<int>(kFrameVersion));
      std::string payload = welcome.Finish();
      if (!welcome_fields_.empty()) {
        payload.back() = ',';  // splice the host-provided fields in
        payload += welcome_fields_;
        payload += '}';
      }
      SendBytes(conn,
                EncodeFrame(FrameType::kWelcome, payload, options_.compress));
      return;
    }
    case FrameType::kRequest: {
      if (conn->session == 0) {
        protocol_errors_total_->Increment();
        conn->closing = true;
        SendStatus(conn, "failed_precondition",
                   "hello required before requests");
        return;
      }
      Job job;
      job.conn_id = conn->id;
      job.request = std::move(frame.payload);
      job.received = std::chrono::steady_clock::now();
      const bool is_op = router_ == nullptr || router_(job.request);
      BoundedQueue<Job>* queue = is_op ? &op_jobs_ : &read_jobs_;
      if (!queue->TryPush(std::move(job))) {
        // Admission control: the op (or read) pool is saturated. The
        // client gets backpressure as data — a Status frame it can retry
        // on — and the event loop moves straight to the next frame.
        rejected_ops_total_->Increment();
        SendStatus(conn, "unavailable",
                   is_op ? "saturated: op queue full"
                         : "saturated: read queue full");
      }
      return;
    }
    default: {
      // Extension frames (replication sync, future subsystems) are offered
      // to the frame hook once the session is established; anything it does
      // not consume is a protocol violation.
      if (frame_hook_ && conn->session != 0 &&
          frame_hook_(conn->id, std::move(frame))) {
        return;
      }
      protocol_errors_total_->Increment();
      conn->closing = true;
      SendStatus(conn, "invalid_argument",
                 "unexpected frame type from client");
      return;
    }
  }
}

void NetServer::DrainCompletions() {
  std::vector<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    auto it = conns_.find(completion.conn_id);
    if (it != conns_.end()) {
      // May close (and erase) the connection on a write error.
      SendBytes(it->second.get(), std::move(completion.frame));
    }
    if (completion.shutdown) {
      // Deliver the ack, then stop serving: the loop exits on its next
      // iteration and Stop() (from WaitForStop's caller) joins the rest.
      it = conns_.find(completion.conn_id);
      if (it != conns_.end()) TryFlush(it->second.get());
      stop_requested_.store(true, std::memory_order_release);
      stopped_.store(true, std::memory_order_release);
      {
        std::lock_guard<std::mutex> lock(stop_mu_);
      }
      stop_cv_.notify_all();
    }
  }
}

void NetServer::SendBytes(Connection* conn, std::string bytes) {
  frames_out_total_->Increment();
  bytes_out_total_->Increment(bytes.size());
  if (conn->outbuf.empty()) {
    conn->outbuf = std::move(bytes);
    conn->out_off = 0;
  } else {
    conn->outbuf += bytes;
  }
  TryFlush(conn);
}

void NetServer::SendStatus(Connection* conn, const std::string& code,
                           const std::string& error) {
  SendBytes(conn, EncodeFrame(FrameType::kStatus, StatusPayload(code, error)));
}

bool NetServer::TryFlush(Connection* conn) {
  while (conn->out_off < conn->outbuf.size()) {
    // net.write: a firing fault poisons the write path (peer gone).
    if (!fault::Inject("net.write").ok()) {
      CloseConnection(conn);
      return false;
    }
    const ssize_t n = write(conn->fd, conn->outbuf.data() + conn->out_off,
                            conn->outbuf.size() - conn->out_off);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      CloseConnection(conn);
      return false;
    }
    conn->out_off += static_cast<size_t>(n);
  }
  if (conn->out_off >= conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->out_off = 0;
    if (conn->closing) {
      CloseConnection(conn);
      return false;
    }
    if (conn->epollout_armed) {
      conn->epollout_armed = false;
      UpdateEpoll(conn);
    }
    return true;
  }
  if (!conn->epollout_armed) {
    conn->epollout_armed = true;
    UpdateEpoll(conn);
  }
  return true;
}

void NetServer::UpdateEpoll(Connection* conn) {
  epoll_event ev{};
  ev.events = EPOLLIN | (conn->epollout_armed ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void NetServer::CloseConnection(Connection* conn) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  active_connections_->Add(-1);
  const uint64_t id = conn->id;
  conns_.erase(conn->id);  // destroys *conn
  if (disconnect_hook_) disconnect_hook_(id);
}

void NetServer::Push(uint64_t conn_id, std::string frame_bytes) {
  Completion completion;
  completion.conn_id = conn_id;
  completion.frame = std::move(frame_bytes);
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    completions_.push_back(std::move(completion));
  }
  WakeLoop();
}

}  // namespace net
}  // namespace gepc
