// gepc_bots — scripted-client load generator for `gepc_serve --listen`.
//
//   gepc_bots --port P [--host H] [--clients N] [--duration-s S]
//             [--threads T] [--arrival closed|poisson] [--rate OPS_S]
//             [--think-ms MS] [--mix op=W,read=W,stats=W[,rebuild=W]]
//             [--seed S] [--compress] [--json FILE] [--shutdown]
//             [--replica HOST:PORT] [--replica-clients N] [--audit-port P]
//
// Spawns N concurrent clients of the binary frame protocol
// (docs/network-protocol.md), each running a scripted mix of mutating ops,
// snapshot reads and stats polls, and measures per-op latency end to end:
//
//   * closed loop (default): every client keeps exactly one request in
//     flight and waits --think-ms between responses — throughput adapts to
//     the server.
//   * poisson: open loop; every client fires requests at --rate ops/s with
//     exponential inter-arrival times regardless of outstanding responses —
//     the arrival rate is fixed, so saturation surfaces as latency and
//     admission-control rejections instead of silently slowing down.
//
// Admission-control Status frames ("saturated") count as rejections, not
// errors: backpressure is the protocol working as designed.
//
// After the measurement window the harness opens one fresh connection,
// drains the server, and compares the server's ops_applied against the
// apply acknowledgements the bots collected: `committed_op_loss` must be
// zero — every op the server acked must still be in its state. The process
// exits 1 on loss (or when nothing connected), making the check CI-able.
//
// Replication-aware load (docs/replication.md): --replica HOST:PORT points
// a second, read-only client fleet (--replica-clients) at a follower, so
// one run captures primary write throughput and replica read throughput
// side by side (replica_* report fields). --audit-port redirects the
// end-of-run drain + zero-loss audit to that port — after a failover
// drill, the promoted follower must still hold every op the bots were
// acked. With --audit-port set, a monitor thread also probes the primary;
// when it dies, the monitor times how long until the audit target reports
// role=primary, and reports it as failover_blackout_ms (-1 = primary
// never died / replica never promoted within the run).
//
// The JSON report (--json) uses the BENCH_*.json shape
// ({"bench":"gepc_bots","results":{...}}) so CI uploads it next to the
// solver benchmarks.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/flags.h"
#include "net/client.h"
#include "net/frame.h"
#include "obs/metrics.h"
#include "service/jsonl.h"

namespace gepc {
namespace bots {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  int clients = 100;
  double duration_s = 5.0;
  int threads = 0;  ///< 0 = min(8, hardware_concurrency)
  std::string arrival = "closed";
  double rate = 10.0;  ///< per-client ops/s in poisson mode
  int think_ms = 0;
  double mix_op = 0.50;
  double mix_read = 0.45;
  double mix_stats = 0.05;
  double mix_rebuild = 0.0;
  uint64_t seed = 1;
  bool compress = false;
  std::string json_path;
  bool send_shutdown = false;

  /// Replication targets (empty/0 = off). The replica fleet is read-only;
  /// the audit port is where the end-of-run drain + zero-loss audit (and
  /// the failover blackout probe) go instead of the primary.
  std::string replica_host;
  int replica_port = 0;
  int replica_clients = 50;
  int audit_port = 0;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: gepc_bots --port P [--host H] [--clients N] [--duration-s S]\n"
      "                 [--threads T] [--arrival closed|poisson]\n"
      "                 [--rate OPS_PER_S] [--think-ms MS]\n"
      "                 [--mix op=W,read=W,stats=W[,rebuild=W]]\n"
      "                 [--seed S] [--compress] [--json FILE] [--shutdown]\n"
      "                 [--replica HOST:PORT] [--replica-clients N]\n"
      "                 [--audit-port P]\n"
      "Load-tests a gepc_serve --listen endpoint; see docs/cli.md.\n"
      "--replica adds a read-only client fleet against a follower;\n"
      "--audit-port audits (and times failover against) that port.\n");
  return 64;
}

/// Parses --mix "kind=W,...": listed kinds get their weight, the rest 0.
Status ParseMix(const std::string& spec, Options* options) {
  options->mix_op = options->mix_read = options->mix_stats =
      options->mix_rebuild = 0.0;
  std::string rest = spec;
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    const std::string item = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    const size_t eq = item.find('=');
    const std::string kind = item.substr(0, eq);
    double* weight = kind == "op"        ? &options->mix_op
                     : kind == "read"    ? &options->mix_read
                     : kind == "stats"   ? &options->mix_stats
                     : kind == "rebuild" ? &options->mix_rebuild
                                         : nullptr;
    if (eq == std::string::npos || weight == nullptr) {
      return Status::InvalidArgument(
          "items must be kind=weight with kind op, read, stats or rebuild");
    }
    const Status parsed =
        Flag::Double(kind, weight, 0.0).set(item.substr(eq + 1));
    if (!parsed.ok()) {
      return Status::InvalidArgument("weight for '" + kind +
                                     "': " + parsed.message());
    }
  }
  if (options->mix_op + options->mix_read + options->mix_stats +
          options->mix_rebuild <=
      0.0) {
    return Status::InvalidArgument("weights must not all be zero");
  }
  return Status::OK();
}

constexpr int kMaxClients = 100000;

Status ParseArgs(int argc, char** argv, Options* options) {
  FlagTable flags = {
      Flag::String("host", &options->host),
      Flag::Int("port", &options->port, 1, 65535),
      Flag::Int("clients", &options->clients, 1, kMaxClients),
      Flag::Double("duration-s", &options->duration_s, 0.0, 3600.0,
                   /*min_exclusive=*/true),
      Flag::Int("threads", &options->threads, 0, kMaxClients),
      Flag::Enum("arrival", &options->arrival, {"closed", "poisson"}),
      Flag::Double("rate", &options->rate, 0.0),
      Flag::Int("think-ms", &options->think_ms, 0, 3'600'000),
      Flag::Custom("mix",
                   [options](const std::string& spec) {
                     return ParseMix(spec, options);
                   }),
      Flag::Uint64("seed", &options->seed),
      Flag::Bool("compress", &options->compress),
      Flag::String("json", &options->json_path),
      Flag::Bool("shutdown", &options->send_shutdown),
      Flag::Custom("replica",
                   [options](const std::string& spec) {
                     if (spec.find(':') == std::string::npos) {
                       return Status::InvalidArgument("expected HOST:PORT");
                     }
                     return ParseHostPort(spec, 1, &options->replica_host,
                                          &options->replica_port);
                   }),
      Flag::Int("replica-clients", &options->replica_clients, 1, kMaxClients),
      Flag::Int("audit-port", &options->audit_port, 1, 65535),
  };
  GEPC_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (!flags.IsSet("port")) {
    return Status::InvalidArgument("--port (1..65535) is required");
  }
  if (options->arrival == "poisson" && options->rate <= 0.0) {
    return Status::InvalidArgument("--rate must be > 0 in poisson mode");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Shared run state
// ---------------------------------------------------------------------------

enum class OpKind { kOp = 0, kRead = 1, kStats = 2, kRebuild = 3 };
constexpr int kOpKinds = 4;

struct RunState {
  const Options* options = nullptr;
  sockaddr_in addr{};
  std::atomic<bool> stop_sending{false};
  std::atomic<bool> stop_loop{false};

  // Workload sizing, learned from the first Welcome frame.
  std::atomic<int> users{0};
  std::atomic<int> events{0};

  std::atomic<uint64_t> connected{0};
  std::atomic<uint64_t> reconnects{0};
  std::atomic<uint64_t> ops_sent{0};
  std::atomic<uint64_t> responses{0};
  std::atomic<uint64_t> ops_ok{0};
  std::atomic<uint64_t> ops_app_error{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> transport_errors{0};
  std::atomic<uint64_t> acked_applied{0};

  // Latency reservoirs (obs histograms are lock-free and thread-safe). The
  // large reservoir keeps quantiles exact for typical smoke runs; longer
  // runs degrade to bucket interpolation.
  obs::Histogram latency_all;
  obs::Histogram latency_kind[kOpKinds];

  RunState()
      : latency_all(obs::Histogram::DefaultLatencyBucketsMs(), 1u << 17),
        latency_kind{
            obs::Histogram(obs::Histogram::DefaultLatencyBucketsMs(), 1u << 16),
            obs::Histogram(obs::Histogram::DefaultLatencyBucketsMs(), 1u << 16),
            obs::Histogram(obs::Histogram::DefaultLatencyBucketsMs(), 1u << 16),
            obs::Histogram(obs::Histogram::DefaultLatencyBucketsMs(),
                           1u << 16)} {}
};

/// Extracts the integer after `"key":` in a flat JSON object; -1 if absent.
int64_t FindIntField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1;
  return std::strtoll(json.c_str() + pos + needle.size(), nullptr, 10);
}

/// Fills an IPv4 socket address; "localhost" is accepted as 127.0.0.1.
bool ResolveIPv4(const std::string& host, int port, sockaddr_in* out) {
  *out = sockaddr_in{};
  out->sin_family = AF_INET;
  out->sin_port = htons(static_cast<uint16_t>(port));
  const std::string ip = host == "localhost" ? "127.0.0.1" : host;
  return inet_pton(AF_INET, ip.c_str(), &out->sin_addr) == 1;
}

// ---------------------------------------------------------------------------
// Per-connection state machine
// ---------------------------------------------------------------------------

struct Conn {
  int fd = -1;
  enum class State { kConnecting, kAwaitWelcome, kActive, kDead };
  State state = State::kConnecting;
  net::FrameDecoder decoder;
  std::string outbuf;
  size_t out_off = 0;
  /// id -> (send time, kind) for in-flight requests.
  std::unordered_map<uint64_t, std::pair<Clock::time_point, OpKind>> inflight;
  uint64_t next_id = 1;
  std::mt19937_64 rng;
  Clock::time_point next_send{};
  int connect_attempts = 0;
};

/// One driver thread: owns an epoll instance and `clients / threads`
/// connections; nothing is shared with other drivers except the RunState
/// atomics and histograms.
class Driver {
 public:
  Driver(RunState* run, int client_count, uint64_t salt)
      : run_(run), client_count_(client_count), salt_(salt) {}

  void Run() {
    epoll_fd_ = epoll_create1(0);
    if (epoll_fd_ < 0) {
      run_->transport_errors.fetch_add(static_cast<uint64_t>(client_count_));
      return;
    }
    int created = 0;
    std::vector<epoll_event> events(256);
    while (!run_->stop_loop.load(std::memory_order_relaxed)) {
      // Pace connection creation: a bounded batch per loop iteration keeps
      // thousands of clients from a single SYN burst.
      while (created < client_count_ &&
             !run_->stop_sending.load(std::memory_order_relaxed)) {
        const int batch = 64;
        int opened = 0;
        while (created < client_count_ && opened < batch) {
          OpenConnection(static_cast<uint64_t>(created));
          ++created;
          ++opened;
        }
        break;
      }

      const int n =
          epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), /*timeout_ms=*/1);
      const Clock::time_point now = Clock::now();
      for (int i = 0; i < n; ++i) {
        const int fd = static_cast<int>(events[i].data.fd);
        auto it = conns_.find(fd);
        if (it == conns_.end()) continue;
        Conn* conn = it->second.get();
        if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0 &&
            conn->state == Conn::State::kConnecting) {
          RetryConnect(conn);
          continue;
        }
        if ((events[i].events & EPOLLOUT) != 0) HandleWritable(conn, now);
        if (conns_.find(fd) == conns_.end()) continue;  // died in write path
        if ((events[i].events & EPOLLIN) != 0) HandleReadable(conn, now);
      }

      if (!run_->stop_sending.load(std::memory_order_relaxed)) {
        // MaybeSend can kill (and erase) a connection; iterate over a
        // snapshot of the keys, re-validating each.
        scan_fds_.clear();
        for (const auto& entry : conns_) scan_fds_.push_back(entry.first);
        for (const int fd : scan_fds_) {
          auto it = conns_.find(fd);
          if (it == conns_.end()) continue;
          if (it->second->state == Conn::State::kActive) {
            MaybeSend(it->second.get(), now);
          }
        }
      }
    }
    for (const auto& entry : conns_) close(entry.second->fd);
    conns_.clear();
    close(epoll_fd_);
  }

  uint64_t OutstandingTotal() const {
    return outstanding_total_.load(std::memory_order_relaxed);
  }

 private:
  void OpenConnection(uint64_t index) {
    auto conn = std::make_unique<Conn>();
    conn->rng.seed(run_->options->seed * 0x9E3779B97F4A7C15ULL + salt_ * 131 +
                   index);
    if (!StartConnect(conn.get())) {
      run_->transport_errors.fetch_add(1);
      return;
    }
    conns_.emplace(conn->fd, std::move(conn));
  }

  bool StartConnect(Conn* conn) {
    ++conn->connect_attempts;
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) return false;
    const int rc = connect(fd, reinterpret_cast<const sockaddr*>(&run_->addr),
                           sizeof(run_->addr));
    if (rc != 0 && errno != EINPROGRESS) {
      close(fd);
      return false;
    }
    conn->fd = fd;
    conn->state = Conn::State::kConnecting;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      return false;
    }
    return true;
  }

  void RetryConnect(Conn* conn) {
    const int fd = conn->fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    close(fd);
    auto node = conns_.extract(fd);
    if (node.empty()) return;
    std::unique_ptr<Conn> owned = std::move(node.mapped());
    if (owned->connect_attempts >= 5 ||
        run_->stop_sending.load(std::memory_order_relaxed)) {
      run_->transport_errors.fetch_add(1);
      return;
    }
    run_->reconnects.fetch_add(1);
    if (StartConnect(owned.get())) {
      const int new_fd = owned->fd;
      conns_.emplace(new_fd, std::move(owned));
    } else {
      run_->transport_errors.fetch_add(1);
    }
  }

  void KillConnection(Conn* conn, bool is_error) {
    if (is_error) run_->transport_errors.fetch_add(1);
    outstanding_total_.fetch_sub(conn->inflight.size(),
                                 std::memory_order_relaxed);
    const int fd = conn->fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    close(fd);
    conns_.erase(fd);
  }

  void HandleWritable(Conn* conn, Clock::time_point now) {
    if (conn->state == Conn::State::kConnecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      if (getsockopt(conn->fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        RetryConnect(conn);
        return;
      }
      int one = 1;
      setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      conn->state = Conn::State::kAwaitWelcome;
      run_->connected.fetch_add(1);
      conn->outbuf += net::EncodeFrame(net::FrameType::kHello, "{}");
      conn->next_send = now;
    }
    Flush(conn);
  }

  void Flush(Conn* conn) {
    while (conn->out_off < conn->outbuf.size()) {
      const ssize_t n =
          write(conn->fd, conn->outbuf.data() + conn->out_off,
                conn->outbuf.size() - conn->out_off);
      if (n > 0) {
        conn->out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      KillConnection(conn, /*is_error=*/true);
      return;
    }
    if (conn->out_off >= conn->outbuf.size()) {
      conn->outbuf.clear();
      conn->out_off = 0;
    } else if (conn->out_off > 65536) {
      conn->outbuf.erase(0, conn->out_off);
      conn->out_off = 0;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | (conn->outbuf.empty() ? 0u : EPOLLOUT);
    ev.data.fd = conn->fd;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  void HandleReadable(Conn* conn, Clock::time_point now) {
    char buffer[65536];
    while (true) {
      const ssize_t n = read(conn->fd, buffer, sizeof(buffer));
      if (n > 0) {
        conn->decoder.Feed(buffer, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof(buffer)) break;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // EOF or reset. During shutdown/drain this is expected bookkeeping,
      // not an error.
      KillConnection(conn, !conn->inflight.empty());
      return;
    }
    net::Frame frame;
    Status error;
    while (true) {
      const auto next = conn->decoder.Pop(&frame, &error);
      if (next == net::FrameDecoder::Next::kNeedMore) break;
      if (next == net::FrameDecoder::Next::kError) {
        KillConnection(conn, /*is_error=*/true);
        return;
      }
      if (!HandleFrame(conn, frame, now)) return;  // conn was destroyed
    }
  }

  /// Returns false when the connection was killed (conn is dangling then).
  bool HandleFrame(Conn* conn, const net::Frame& frame, Clock::time_point now) {
    switch (frame.type) {
      case net::FrameType::kWelcome: {
        if (run_->users.load(std::memory_order_relaxed) == 0) {
          const int64_t users = FindIntField(frame.payload, "users");
          const int64_t events = FindIntField(frame.payload, "events");
          if (users > 0) run_->users.store(static_cast<int>(users));
          if (events > 0) run_->events.store(static_cast<int>(events));
        }
        conn->state = Conn::State::kActive;
        conn->next_send = now;
        return true;
      }
      case net::FrameType::kResponse: {
        run_->responses.fetch_add(1);
        const int64_t id = FindIntField(frame.payload, "id");
        if (id >= 0) {
          auto it = conn->inflight.find(static_cast<uint64_t>(id));
          if (it != conn->inflight.end()) {
            const double ms = std::chrono::duration<double, std::milli>(
                                  now - it->second.first)
                                  .count();
            run_->latency_all.Observe(ms);
            run_->latency_kind[static_cast<int>(it->second.second)].Observe(ms);
            conn->inflight.erase(it);
            outstanding_total_.fetch_sub(1, std::memory_order_relaxed);
          }
        }
        if (frame.payload.find("\"ok\":true") != std::string::npos) {
          run_->ops_ok.fetch_add(1);
        } else {
          run_->ops_app_error.fetch_add(1);
        }
        if (frame.payload.find("\"applied\":true") != std::string::npos) {
          run_->acked_applied.fetch_add(1);
        }
        if (run_->options->arrival == "closed") {
          conn->next_send =
              now + std::chrono::milliseconds(run_->options->think_ms);
        }
        return true;
      }
      case net::FrameType::kStatus: {
        // Status frames carry no request id; in the closed loop the single
        // in-flight request is the one being answered, in the open loop we
        // charge the oldest (the map stays bounded either way).
        if (frame.payload.find("saturated") != std::string::npos) {
          run_->rejected.fetch_add(1);
        } else {
          run_->transport_errors.fetch_add(1);
        }
        if (!conn->inflight.empty()) {
          auto oldest = conn->inflight.begin();
          for (auto it = conn->inflight.begin(); it != conn->inflight.end();
               ++it) {
            if (it->second.first < oldest->second.first) oldest = it;
          }
          conn->inflight.erase(oldest);
          outstanding_total_.fetch_sub(1, std::memory_order_relaxed);
        }
        if (run_->options->arrival == "closed") {
          conn->next_send =
              now + std::chrono::milliseconds(
                        std::max(1, run_->options->think_ms));
        }
        return true;
      }
      default:
        // Unexpected server frame; drop the connection.
        KillConnection(conn, /*is_error=*/true);
        return false;
    }
  }

  OpKind PickKind(Conn* conn) {
    const Options& options = *run_->options;
    const double total =
        options.mix_op + options.mix_read + options.mix_stats +
        options.mix_rebuild;
    std::uniform_real_distribution<double> uniform(0.0, total);
    double draw = uniform(conn->rng);
    if ((draw -= options.mix_op) < 0.0) return OpKind::kOp;
    if ((draw -= options.mix_read) < 0.0) return OpKind::kRead;
    if ((draw -= options.mix_stats) < 0.0) return OpKind::kStats;
    return OpKind::kRebuild;
  }

  std::string BuildRequest(Conn* conn, OpKind kind, uint64_t id) {
    const int users = std::max(1, run_->users.load(std::memory_order_relaxed));
    const int events =
        std::max(1, run_->events.load(std::memory_order_relaxed));
    auto pick = [&conn](int bound) {
      return static_cast<int>(conn->rng() % static_cast<uint64_t>(bound));
    };
    JsonWriter request;
    request.Add("id", static_cast<int64_t>(id));
    switch (kind) {
      case OpKind::kOp: {
        // Mutating ops over the ParseOpSpec grammar (docs/cli.md), spread
        // across preference, budget and capacity changes.
        const int which = pick(10);
        std::string spec;
        if (which < 4) {
          spec = "mu:" + std::to_string(pick(users)) + ":" +
                 std::to_string(pick(events)) + ":" +
                 std::to_string(pick(100));
        } else if (which < 6) {
          spec = "budget:" + std::to_string(pick(users)) + ":" +
                 std::to_string(50 + pick(300));
        } else if (which < 8) {
          spec = "eta:" + std::to_string(pick(events)) + ":" +
                 std::to_string(1 + pick(users));
        } else {
          spec = "xi:" + std::to_string(pick(events)) + ":" +
                 std::to_string(pick(3));
        }
        request.Add("cmd", "apply");
        request.Add("op", spec);
        break;
      }
      case OpKind::kRead: {
        if (pick(5) < 4) {
          request.Add("cmd", "query_user");
          request.Add("user", pick(users));
        } else {
          request.Add("cmd", "query_event");
          request.Add("event", pick(events));
        }
        break;
      }
      case OpKind::kStats:
        request.Add("cmd", "stats");
        break;
      case OpKind::kRebuild:
        request.Add("cmd", "rebuild");
        break;
    }
    return request.Finish();
  }

  /// Returns false when the connection died flushing (conn dangles then).
  bool SendOne(Conn* conn, Clock::time_point now) {
    const int fd = conn->fd;
    const OpKind kind = PickKind(conn);
    const uint64_t id = conn->next_id++;
    const std::string payload = BuildRequest(conn, kind, id);
    conn->inflight.emplace(id, std::make_pair(now, kind));
    outstanding_total_.fetch_add(1, std::memory_order_relaxed);
    run_->ops_sent.fetch_add(1);
    conn->outbuf += net::EncodeFrame(net::FrameType::kRequest, payload,
                                     run_->options->compress);
    Flush(conn);
    return conns_.find(fd) != conns_.end();
  }

  void MaybeSend(Conn* conn, Clock::time_point now) {
    const Options& options = *run_->options;
    if (options.arrival == "closed") {
      if (conn->inflight.empty() && now >= conn->next_send) {
        SendOne(conn, now);
      }
      return;
    }
    // Open loop: fire every due arrival, bounded per scan so one laggard
    // connection cannot monopolize the driver; cap in-flight to bound
    // memory when the server is far behind.
    int burst = 0;
    while (now >= conn->next_send && burst < 16 &&
           conn->inflight.size() < 256) {
      if (!SendOne(conn, now)) return;  // died mid-send
      std::exponential_distribution<double> gap(options.rate);
      conn->next_send +=
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(gap(conn->rng)));
      ++burst;
    }
    if (now >= conn->next_send && burst >= 16) conn->next_send = now;
  }

  RunState* const run_;
  const int client_count_;
  const uint64_t salt_;
  int epoll_fd_ = -1;
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::vector<int> scan_fds_;  ///< reused per-iteration key snapshot
  std::atomic<uint64_t> outstanding_total_{0};
};

// ---------------------------------------------------------------------------
// Blocking control connection (handshake + drain/stats/shutdown)
// ---------------------------------------------------------------------------

/// Per-frame wait on the control channel: generous, because a drain
/// returns only once the server's writer queue is empty.
constexpr int kControlTimeoutMs = 60000;

/// Connects `client` to host:port and runs the Hello/Welcome handshake.
bool OpenControl(const std::string& host, int port, net::FrameClient* client) {
  return client->Connect(host, port).ok() &&
         client->Handshake(kControlTimeoutMs).ok();
}

/// Sends one request and returns the first Response payload ("" on
/// transport failure). Status frames (e.g. saturation) are retried a few
/// times — the control channel runs after the load stops, so the queue
/// drains quickly.
std::string ControlRequest(net::FrameClient* client, const std::string& line) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    net::Frame frame;
    if (!client->Send(net::FrameType::kRequest, line).ok() ||
        !client->Recv(&frame, kControlTimeoutMs).ok()) {
      return "";
    }
    if (frame.type == net::FrameType::kResponse) return frame.payload;
    if (frame.type != net::FrameType::kStatus) return "";
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return "";
}

// ---------------------------------------------------------------------------
// Failover blackout monitor
// ---------------------------------------------------------------------------

/// Times the write blackout of a failover drill: the gap between the
/// primary dying and the audit target reporting role=primary (i.e.
/// accepting writes again). Both transitions are detected by polling
/// stats over short-lived control connections from a dedicated thread, so
/// the measurement is independent of the load fleets' reconnect behavior.
class FailoverMonitor {
 public:
  FailoverMonitor(std::string primary_host, int primary_port,
                  std::string audit_host, int audit_port)
      : primary_host_(std::move(primary_host)),
        primary_port_(primary_port),
        audit_host_(std::move(audit_host)),
        audit_port_(audit_port),
        thread_([this] { Loop(); }) {}

  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  ~FailoverMonitor() { Stop(); }

  double blackout_ms() const { return blackout_ms_.load(); }
  bool promoted_seen() const { return promoted_seen_.load(); }

 private:
  static bool ProbeStats(const std::string& host, int port,
                         std::string* out) {
    net::FrameClient probe;
    if (!OpenControl(host, port, &probe)) return false;
    *out = ControlRequest(&probe, "{\"cmd\":\"stats\"}");
    return !out->empty();
  }

  void Loop() {
    bool primary_was_up = false;
    bool primary_died = false;
    Clock::time_point death{};
    while (!stop_.load(std::memory_order_relaxed)) {
      std::string stats;
      if (!primary_died) {
        // A probe failure only counts as death after at least one success:
        // the monitor may start before the primary finishes booting.
        if (ProbeStats(primary_host_, primary_port_, &stats)) {
          primary_was_up = true;
        } else if (primary_was_up) {
          death = Clock::now();
          primary_died = true;
          continue;  // switch to the promotion probe immediately
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        continue;
      }
      if (ProbeStats(audit_host_, audit_port_, &stats) &&
          stats.find("\"role\":\"primary\"") != std::string::npos) {
        blackout_ms_.store(std::chrono::duration<double, std::milli>(
                               Clock::now() - death)
                               .count());
        promoted_seen_.store(true, std::memory_order_relaxed);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  const std::string primary_host_;
  const int primary_port_;
  const std::string audit_host_;
  const int audit_port_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> promoted_seen_{false};
  std::atomic<double> blackout_ms_{-1.0};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

std::string BuildReport(const RunState& run, const RunState* replica,
                        double elapsed_s, int threads_used,
                        int64_t server_applied, uint64_t loss,
                        const FailoverMonitor* monitor) {
  const auto all = run.latency_all.Snapshot();
  JsonWriter results;
  results.Add("clients", run.options->clients);
  results.Add("threads", threads_used);
  results.Add("duration_s", elapsed_s);
  results.Add("connected", run.connected.load());
  results.Add("reconnects", run.reconnects.load());
  results.Add("ops_sent", run.ops_sent.load());
  results.Add("ops_total", run.responses.load());
  results.Add("ops_ok", run.ops_ok.load());
  results.Add("ops_app_error", run.ops_app_error.load());
  results.Add("ops_rejected", run.rejected.load());
  results.Add("transport_errors", run.transport_errors.load());
  results.Add("throughput_ops_s",
              elapsed_s > 0.0
                  ? static_cast<double>(run.responses.load()) / elapsed_s
                  : 0.0);
  results.Add("latency_ms_mean", all.Mean());
  results.Add("latency_ms_p50", all.Quantile(0.50));
  results.Add("latency_ms_p90", all.Quantile(0.90));
  results.Add("latency_ms_p99", all.Quantile(0.99));
  results.Add("latency_ms_p999", all.Quantile(0.999));
  results.Add("latency_ms_max", all.max);
  results.Add("latency_samples_exact", all.exact);
  static const char* const kKindNames[kOpKinds] = {"op", "read", "stats",
                                                  "rebuild"};
  for (int k = 0; k < kOpKinds; ++k) {
    const auto snap = run.latency_kind[k].Snapshot();
    if (snap.count == 0) continue;
    const std::string prefix = std::string(kKindNames[k]);
    results.Add(prefix + "_count", snap.count);
    results.Add(prefix + "_ms_p50", snap.Quantile(0.50));
    results.Add(prefix + "_ms_p99", snap.Quantile(0.99));
  }
  results.Add("acked_applied", run.acked_applied.load());
  results.Add("server_ops_applied", server_applied);
  results.Add("committed_op_loss", loss);
  if (replica != nullptr) {
    const auto snap = replica->latency_all.Snapshot();
    results.Add("replica_clients", replica->options->clients);
    results.Add("replica_connected", replica->connected.load());
    results.Add("replica_reconnects", replica->reconnects.load());
    results.Add("replica_ops_total", replica->responses.load());
    results.Add("replica_ops_ok", replica->ops_ok.load());
    results.Add("replica_ops_rejected", replica->rejected.load());
    results.Add("replica_transport_errors",
                replica->transport_errors.load());
    results.Add("replica_throughput_ops_s",
                elapsed_s > 0.0
                    ? static_cast<double>(replica->responses.load()) /
                          elapsed_s
                    : 0.0);
    results.Add("replica_read_ms_p50", snap.Quantile(0.50));
    results.Add("replica_read_ms_p90", snap.Quantile(0.90));
    results.Add("replica_read_ms_p99", snap.Quantile(0.99));
  }
  if (monitor != nullptr) {
    results.Add("failover_blackout_ms", monitor->blackout_ms());
    results.Add("replica_promoted", monitor->promoted_seen());
  }
  return "{\"bench\":\"gepc_bots\",\"results\":" + results.Finish() + "}";
}

int Main(int argc, char** argv) {
  Options options;
  const Status parsed = ParseArgs(argc, argv, &options);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.message().c_str());
    return Usage();
  }
  obs::SetEnabled(true);

  RunState run;
  run.options = &options;
  if (!ResolveIPv4(options.host, options.port, &run.addr)) {
    std::fprintf(stderr, "error: --host must be an IPv4 address\n");
    return Usage();
  }

  // Replica read fleet: a second RunState with a read-only mix. Its
  // drivers run in the same worker pool but share nothing with the primary
  // fleet, so the report can split the two throughputs cleanly.
  Options replica_options;
  RunState replica_run;
  if (options.replica_port > 0) {
    replica_options = options;
    replica_options.clients = options.replica_clients;
    replica_options.mix_op = 0.0;
    replica_options.mix_rebuild = 0.0;
    replica_options.mix_read = 0.9;
    replica_options.mix_stats = 0.1;
    replica_run.options = &replica_options;
    if (!ResolveIPv4(options.replica_host, options.replica_port,
                     &replica_run.addr)) {
      std::fprintf(stderr, "error: --replica host must be an IPv4 address\n");
      return Usage();
    }
  }

  // Where the end-of-run audit (and the failover probe) goes; both hosts
  // were checked above.
  std::string audit_host = options.host;
  int audit_port = options.port;
  if (options.audit_port > 0) {
    if (!options.replica_host.empty()) audit_host = options.replica_host;
    audit_port = options.audit_port;
  }

  int threads = options.threads;
  if (threads <= 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = static_cast<int>(hw == 0 ? 4 : std::min(8u, hw));
  }
  threads = std::min(threads, options.clients);

  std::vector<std::unique_ptr<Driver>> drivers;
  const int base = options.clients / threads;
  const int extra = options.clients % threads;
  for (int t = 0; t < threads; ++t) {
    const int count = base + (t < extra ? 1 : 0);
    drivers.push_back(
        std::make_unique<Driver>(&run, count, static_cast<uint64_t>(t)));
  }
  std::vector<std::unique_ptr<Driver>> replica_drivers;
  if (options.replica_port > 0) {
    const int replica_threads =
        std::min(2, replica_options.clients);
    const int rbase = replica_options.clients / replica_threads;
    const int rextra = replica_options.clients % replica_threads;
    for (int t = 0; t < replica_threads; ++t) {
      const int count = rbase + (t < rextra ? 1 : 0);
      // Salt offset keeps replica client rngs decorrelated from the
      // primary fleet's.
      replica_drivers.push_back(std::make_unique<Driver>(
          &replica_run, count, static_cast<uint64_t>(1000 + t)));
    }
  }

  std::vector<std::thread> workers;
  const Clock::time_point start = Clock::now();
  workers.reserve(drivers.size() + replica_drivers.size());
  for (auto& driver : drivers) {
    workers.emplace_back([&driver] { driver->Run(); });
  }
  for (auto& driver : replica_drivers) {
    workers.emplace_back([&driver] { driver->Run(); });
  }

  std::unique_ptr<FailoverMonitor> monitor;
  if (options.audit_port > 0) {
    monitor = std::make_unique<FailoverMonitor>(options.host, options.port,
                                                audit_host, audit_port);
  }

  std::this_thread::sleep_for(
      std::chrono::duration<double>(options.duration_s));
  run.stop_sending.store(true, std::memory_order_relaxed);
  replica_run.stop_sending.store(true, std::memory_order_relaxed);

  // Grace period: let in-flight responses land before tearing down.
  const Clock::time_point grace_deadline =
      Clock::now() + std::chrono::seconds(2);
  while (Clock::now() < grace_deadline) {
    uint64_t outstanding = 0;
    for (const auto& driver : drivers) outstanding += driver->OutstandingTotal();
    for (const auto& driver : replica_drivers) {
      outstanding += driver->OutstandingTotal();
    }
    if (outstanding == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  run.stop_loop.store(true, std::memory_order_relaxed);
  replica_run.stop_loop.store(true, std::memory_order_relaxed);
  for (auto& worker : workers) worker.join();
  if (monitor != nullptr) monitor->Stop();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Zero-committed-op-loss audit: drain the server, then compare its
  // applied-op count against the acks the bots collected. With
  // --audit-port the audit goes to the (promoted) replica instead — after
  // a failover drill it must hold every op the primary acked.
  int64_t server_applied = -1;
  net::FrameClient control;
  bool control_ok = OpenControl(audit_host, audit_port, &control);
  if (control_ok) {
    control_ok = !ControlRequest(&control, "{\"cmd\":\"drain\"}").empty();
  }
  if (control_ok) {
    const std::string stats =
        ControlRequest(&control, "{\"cmd\":\"stats\"}");
    if (!stats.empty()) server_applied = FindIntField(stats, "ops_applied");
  }
  const uint64_t acked = run.acked_applied.load();
  const uint64_t loss =
      (server_applied >= 0 && acked > static_cast<uint64_t>(server_applied))
          ? acked - static_cast<uint64_t>(server_applied)
          : 0;
  if (options.send_shutdown) {
    if (control_ok) {
      ControlRequest(&control, "{\"cmd\":\"shutdown\"}");
    } else {
      std::fprintf(stderr,
                   "warning: control connection failed; server not shut "
                   "down\n");
    }
  }

  const std::string report = BuildReport(
      run, options.replica_port > 0 ? &replica_run : nullptr, elapsed_s,
      threads, server_applied, loss, monitor.get());
  std::fputs(report.c_str(), stdout);
  std::fputc('\n', stdout);
  if (!options.json_path.empty()) {
    std::ofstream out(options.json_path, std::ios::trunc);
    if (out) out << report << "\n";
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   options.json_path.c_str());
      return 1;
    }
  }

  if (run.connected.load() == 0) {
    std::fprintf(stderr, "error: no client ever connected\n");
    return 1;
  }
  if (run.responses.load() == 0) {
    std::fprintf(stderr, "error: no response ever received\n");
    return 1;
  }
  if (options.replica_port > 0 && replica_run.responses.load() == 0) {
    std::fprintf(stderr, "error: no replica response ever received\n");
    return 1;
  }
  if (server_applied < 0) {
    std::fprintf(stderr, "error: could not audit server stats after run\n");
    return 1;
  }
  if (loss > 0) {
    std::fprintf(stderr,
                 "error: committed-op loss: bots hold %llu apply acks but "
                 "the server reports %lld applied\n",
                 static_cast<unsigned long long>(acked),
                 static_cast<long long>(server_applied));
    return 1;
  }
  return 0;
}

}  // namespace bots
}  // namespace gepc

int main(int argc, char** argv) { return gepc::bots::Main(argc, argv); }
