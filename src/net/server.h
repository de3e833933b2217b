#ifndef GEPC_NET_SERVER_H_
#define GEPC_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "service/op_queue.h"

namespace gepc {
namespace net {

struct NetServerOptions {
  /// Bind address. Tests and single-machine load runs keep the loopback
  /// default; 0.0.0.0 exposes the service.
  std::string host = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port; port() reports the real one
  /// after Start.
  int port = 0;
  /// Accepted connections beyond this are greeted with a Status frame
  /// ("server full") and closed — the accept loop itself never blocks.
  int max_connections = 4096;
  /// Worker threads executing read-only commands (snapshot queries). They
  /// never touch the writer path, so reads keep flowing while the op queue
  /// is saturated.
  int read_workers = 2;
  /// Worker threads executing state-changing commands. Writes ultimately
  /// serialize in the PlanningService writer thread; a couple of workers
  /// are enough to keep its queue fed.
  int op_workers = 2;
  /// Bound of the op dispatch queue; the read queue holds 4x as many. A
  /// full queue is the admission-control signal: the event loop answers
  /// with a Status frame ("saturated") instead of enqueueing — backpressure
  /// reaches the client as data, never as a stalled accept loop.
  size_t op_queue_capacity = 256;
  /// Compress server->client payloads >= kCompressMinBytes when that
  /// shrinks them (clients always may compress; the decoder autodetects).
  bool compress = false;
};

/// What the request handler produced (mirrors service/dispatch.h's
/// DispatchOutcome without coupling net to the service layer).
struct HandlerResult {
  std::string response;
  /// True when the request asked the server to stop; the response is
  /// delivered to the requesting client first.
  bool shutdown = false;
};

/// The gepc_net_* values a test can read without scraping Prometheus text.
/// They come from the process-global registry, so with several NetServers
/// in one process they are sums over all of them, not this server's own.
struct NetServerCounters {
  uint64_t connections_accepted = 0;
  int64_t active_connections = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t rejected_ops = 0;       ///< admission-control Status rejections
  uint64_t protocol_errors = 0;    ///< bad frames / commands before hello
  uint64_t connections_refused = 0;  ///< over max_connections
};

/// Epoll-based event-dispatcher front end: one event-loop thread owns every
/// socket (accept, non-blocking reads, frame decode, non-blocking writes);
/// decoded requests are executed on small read/op worker pools and their
/// responses handed back to the loop through a completion queue + eventfd.
///
/// The loop never blocks on the service: when a dispatch queue is full the
/// request is answered immediately with a Status frame (admission control),
/// and reads are served from immutable snapshots on their own pool, so a
/// saturated writer delays writes only. See docs/network-protocol.md for
/// the wire protocol and DESIGN.md for the threading model.
class NetServer {
 public:
  /// Executes one JSONL request line; called on worker threads, must be
  /// thread-safe.
  using Handler = std::function<HandlerResult(const std::string& request)>;
  /// Returns true when the request must ride the op (write) pool; false
  /// routes to the read pool. Null routes everything to the op pool.
  using Router = std::function<bool(const std::string& request)>;
  /// First look at any frame type the core protocol does not handle
  /// (everything beyond Hello/Request), offered only after the handshake.
  /// Runs on the event-loop thread, so it must be quick — hand heavy work
  /// to another thread and answer later through Push(). Return true when
  /// the frame was consumed; false falls through to the protocol error.
  using FrameHook = std::function<bool(uint64_t conn_id, Frame frame)>;
  /// Observes every connection teardown (event-loop thread). Fires for all
  /// connections, whether or not the hook ever saw a frame from them.
  using DisconnectHook = std::function<void(uint64_t conn_id)>;

  /// `welcome_fields` is appended verbatim into the Welcome frame's JSON
  /// object (e.g. "\"users\":500,\"events\":40") so clients can size their
  /// workload from the handshake alone; empty adds nothing.
  NetServer(NetServerOptions options, Handler handler, Router router = nullptr,
            std::string welcome_fields = "");
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Installs the extension hooks (replication uses both). Must be called
  /// before Start(); the hooks run on the event-loop thread.
  void SetFrameHook(FrameHook hook) { frame_hook_ = std::move(hook); }
  void SetDisconnectHook(DisconnectHook hook) {
    disconnect_hook_ = std::move(hook);
  }

  /// Binds, listens, and spawns the event loop + worker threads.
  Status Start();

  /// Queues pre-encoded frame bytes for `conn_id` and wakes the event loop
  /// to flush them. Safe from any thread; a connection that has meanwhile
  /// closed silently drops the bytes. This is how replication fans rows out
  /// to followers without ever touching a socket off the loop thread.
  void Push(uint64_t conn_id, std::string frame_bytes);

  /// The bound port (resolves option 0 to the kernel's choice). Valid
  /// after a successful Start.
  int port() const { return port_; }

  /// Blocks until the server stopped — via Stop() or a shutdown request.
  void WaitForStop();

  /// Stops accepting, terminates the event loop, joins every thread and
  /// closes every connection. Requests still queued are dropped (their
  /// clients see EOF). Idempotent; the destructor calls it.
  void Stop();

  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  /// Reads the process-wide gepc_net_* families (see NetServerCounters).
  NetServerCounters Counters() const;

 private:
  struct Connection;
  struct Job {
    uint64_t conn_id = 0;
    std::string request;
    std::chrono::steady_clock::time_point received{};
  };
  struct Completion {
    uint64_t conn_id = 0;
    std::string frame;  ///< pre-encoded response frame bytes
    bool shutdown = false;
  };

  void EventLoop();
  void WorkerLoop(BoundedQueue<Job>* queue);
  void HandleAccept();
  void HandleReadable(Connection* conn);
  void HandleFrame(Connection* conn, Frame frame);
  void DrainCompletions();
  /// Appends bytes to the connection's output and flushes what the socket
  /// accepts now; arms EPOLLOUT for the rest.
  void SendBytes(Connection* conn, std::string bytes);
  void SendStatus(Connection* conn, const std::string& code,
                  const std::string& error);
  bool TryFlush(Connection* conn);  ///< false = connection died
  void CloseConnection(Connection* conn);
  void UpdateEpoll(Connection* conn);
  void WakeLoop();

  const NetServerOptions options_;
  const Handler handler_;
  const Router router_;
  const std::string welcome_fields_;
  FrameHook frame_hook_;            // set before Start, then immutable
  DisconnectHook disconnect_hook_;  // set before Start, then immutable

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int port_ = 0;

  BoundedQueue<Job> read_jobs_;
  BoundedQueue<Job> op_jobs_;

  std::mutex completions_mu_;
  std::vector<Completion> completions_;

  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  uint64_t next_conn_id_ = 2;  // 0 = listen fd, 1 = wake fd in epoll data
  uint64_t next_session_id_ = 1;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> stopped_{false};
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  std::once_flag stop_once_;

  std::thread event_thread_;
  std::vector<std::thread> workers_;

  // Net-layer metrics, shared with the global registry (docs/observability.md).
  std::shared_ptr<obs::Gauge> active_connections_;
  std::shared_ptr<obs::Counter> connections_total_;
  std::shared_ptr<obs::Counter> frames_in_total_;
  std::shared_ptr<obs::Counter> frames_out_total_;
  std::shared_ptr<obs::Counter> bytes_in_total_;
  std::shared_ptr<obs::Counter> bytes_out_total_;
  std::shared_ptr<obs::Counter> rejected_ops_total_;
  std::shared_ptr<obs::Counter> protocol_errors_total_;
  std::shared_ptr<obs::Counter> connections_refused_total_;
  std::shared_ptr<obs::Histogram> request_ms_;
};

}  // namespace net
}  // namespace gepc

#endif  // GEPC_NET_SERVER_H_
