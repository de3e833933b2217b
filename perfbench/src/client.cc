#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace perfbench {

using gepc::Status;
using gepc::net::EncodeFrame;
using gepc::net::Frame;
using gepc::net::FrameDecoder;
using gepc::net::FrameType;

struct LoadClient::Conn {
  int fd = -1;
  FrameDecoder decoder;
  std::string outbuf;
  size_t out_off = 0;
  bool dead = false;
  /// Requests sent on this connection and not yet answered by a Response.
  uint64_t unanswered = 0;
  /// Status rejections received; each settles one unanswered request, but
  /// the frame does not say which one.
  uint64_t rejections = 0;

  ~Conn() {
    if (fd >= 0) close(fd);
  }
};

namespace {

constexpr size_t kSampledResponses = 256;

/// Value of the top-level member `key` of a flat-enough JSON object, as its
/// raw token; "" when absent. Responses put scalars before any array, so
/// the first match is the top-level one.
std::string FindMember(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const size_t begin = at + needle.size();
  size_t end = begin;
  while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
  return json.substr(begin, end - begin);
}

bool WriteAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Blocking handshake: Hello out, Welcome back.
Status Handshake(int fd) {
  if (!WriteAll(fd, EncodeFrame(FrameType::kHello, "{}"))) {
    return Status::Unavailable("hello write failed");
  }
  FrameDecoder decoder;
  char buffer[4096];
  for (;;) {
    Frame frame;
    Status error;
    const FrameDecoder::Next next = decoder.Pop(&frame, &error);
    if (next == FrameDecoder::Next::kError) return error;
    if (next == FrameDecoder::Next::kFrame) {
      if (frame.type == FrameType::kWelcome) return Status::OK();
      return Status::Unavailable("handshake refused: " + frame.payload);
    }
    const ssize_t n = read(fd, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::Unavailable("connection closed in handshake");
    decoder.Feed(buffer, static_cast<size_t>(n));
  }
}

}  // namespace

std::string PhaseCounts::ToString() const {
  return "sent=" + std::to_string(sent) + " ok=" + std::to_string(ok) +
         " app_error=" + std::to_string(app_error) +
         " rejected=" + std::to_string(rejected) +
         " transport=" + std::to_string(transport) +
         " missing=" + std::to_string(missing);
}

gepc::Result<std::unique_ptr<LoadClient>> LoadClient::Connect(int port,
                                                              int connections) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (int i = 0; i < connections; ++i) {
    auto conn = std::make_unique<Conn>();
    conn->fd = socket(AF_INET, SOCK_STREAM, 0);
    if (conn->fd < 0) return Status::Unavailable("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Status::Unavailable(std::string("connect failed: ") +
                                 std::strerror(errno));
    }
    const int one = 1;
    setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    GEPC_RETURN_IF_ERROR(Handshake(conn->fd));
    fcntl(conn->fd, F_SETFL, fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
    conns.push_back(std::move(conn));
  }
  return std::unique_ptr<LoadClient>(new LoadClient(std::move(conns)));
}

LoadClient::LoadClient(std::vector<std::unique_ptr<Conn>> conns)
    : conns_(std::move(conns)) {}

LoadClient::~LoadClient() = default;

uint64_t LoadClient::Outstanding() const {
  uint64_t total = 0;
  for (const auto& conn : conns_) {
    if (!conn->dead) total += conn->unanswered - conn->rejections;
  }
  return total;
}

void LoadClient::Send(PhaseResult* phase, size_t index, bool traced) {
  RequestRecord& record = phase->requests[index];
  Conn* conn = conns_[static_cast<size_t>(record.conn)].get();
  record.traced = traced;
  record.sent = true;
  record.sent_ms = MsBetween(phase->start, Clock::now());
  ++phase->counts.sent;
  if (conn->dead) {
    record.outcome = Outcome::kTransport;
    return;
  }
  // Ids are phase-relative offsets from next_id_, so an answer maps back to
  // its record by arithmetic.
  std::string line = "{\"id\":" + std::to_string(next_id_ + index) + ",";
  if (traced) line += "\"t\":1,";
  line += record.line.substr(1);
  conn->outbuf += EncodeFrame(FrameType::kRequest, line);
  ++conn->unanswered;
  while (conn->out_off < conn->outbuf.size()) {
    const ssize_t n = write(conn->fd, conn->outbuf.data() + conn->out_off,
                            conn->outbuf.size() - conn->out_off);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) {
      FailConn(phase, conn);
      return;
    }
    conn->out_off += static_cast<size_t>(n);
  }
  if (conn->out_off == conn->outbuf.size()) {
    conn->outbuf.clear();
    conn->out_off = 0;
  }
}

void LoadClient::FailConn(PhaseResult* phase, Conn* conn) {
  if (conn->dead) return;
  conn->dead = true;
  for (RequestRecord& record : phase->requests) {
    if (record.outcome == Outcome::kPending && record.sent &&
        conns_[static_cast<size_t>(record.conn)].get() == conn) {
      record.outcome = Outcome::kTransport;
    }
  }
  conn->unanswered = 0;
  conn->rejections = 0;
}

void LoadClient::HandleFrame(PhaseResult* phase, Conn* conn, const Frame& frame) {
  if (frame.type == FrameType::kStatus) {
    // Admission control refused one of this connection's requests.
    if (frame.payload.find("saturated") != std::string::npos) {
      ++conn->rejections;
    } else {
      FailConn(phase, conn);
    }
    return;
  }
  if (frame.type != FrameType::kResponse) return;
  const std::string id_token = FindMember(frame.payload, "id");
  char* end = nullptr;
  const double id = std::strtod(id_token.c_str(), &end);
  if (id_token.empty() || end == id_token.c_str() || id < 0.0) return;
  const double offset = std::nearbyint(id) - static_cast<double>(next_id_);
  if (offset < 0.0 || offset >= static_cast<double>(phase->requests.size())) {
    return;
  }
  RequestRecord& record = phase->requests[static_cast<size_t>(offset)];
  if (record.outcome != Outcome::kPending) return;
  record.done_ms = MsBetween(phase->start, Clock::now());
  --conn->unanswered;
  bool ok = FindMember(frame.payload, "ok") == "true";
  if (record.write) {
    ok = ok && FindMember(frame.payload, "applied") == "true";
    record.seq = std::strtoull(FindMember(frame.payload, "seq").c_str(), nullptr, 10);
  }
  record.outcome = ok ? Outcome::kOk : Outcome::kAppError;
  if (phase->sample_responses.size() < kSampledResponses) {
    phase->sample_responses.push_back(frame.payload);
  }
}

std::vector<size_t> LoadClient::Poll(PhaseResult* phase, double wait_ms) {
  std::vector<pollfd> fds;
  for (const auto& conn : conns_) {
    pollfd p{};
    p.fd = conn->dead ? -1 : conn->fd;
    p.events = POLLIN;
    if (!conn->outbuf.empty()) p.events |= POLLOUT;
    fds.push_back(p);
  }
  const double wait = std::max(0.0, wait_ms);
  timespec timeout{};
  timeout.tv_sec = static_cast<time_t>(wait / 1000.0);
  timeout.tv_nsec = static_cast<long>(std::fmod(wait, 1000.0) * 1e6);
  const int ready = ppoll(fds.data(), fds.size(), &timeout, nullptr);
  std::vector<size_t> answered;
  if (ready <= 0) return answered;
  char buffer[65536];
  for (size_t c = 0; c < conns_.size(); ++c) {
    Conn* conn = conns_[c].get();
    if (conn->dead || fds[c].revents == 0) continue;
    if (fds[c].revents & POLLOUT) {
      while (conn->out_off < conn->outbuf.size()) {
        const ssize_t n = write(conn->fd, conn->outbuf.data() + conn->out_off,
                                conn->outbuf.size() - conn->out_off);
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n <= 0) {
          FailConn(phase, conn);
          break;
        }
        conn->out_off += static_cast<size_t>(n);
      }
      if (!conn->dead && conn->out_off == conn->outbuf.size()) {
        conn->outbuf.clear();
        conn->out_off = 0;
      }
    }
    if (conn->dead || !(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
    for (;;) {
      const ssize_t n = read(conn->fd, buffer, sizeof(buffer));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        FailConn(phase, conn);
        break;
      }
      conn->decoder.Feed(buffer, static_cast<size_t>(n));
    }
    for (;;) {
      Frame frame;
      Status error;
      const FrameDecoder::Next next = conn->decoder.Pop(&frame, &error);
      if (next == FrameDecoder::Next::kNeedMore) break;
      if (next == FrameDecoder::Next::kError) {
        FailConn(phase, conn);
        break;
      }
      const uint64_t before = conn->rejections;
      const uint64_t unanswered = conn->unanswered;
      HandleFrame(phase, conn, frame);
      if (conn->unanswered < unanswered || conn->rejections > before) {
        answered.push_back(c);
      }
    }
  }
  return answered;
}

void LoadClient::Finish(PhaseResult* phase) {
  std::vector<uint64_t> rejections;
  for (const auto& conn : conns_) rejections.push_back(conn->rejections);
  for (RequestRecord& record : phase->requests) {
    if (record.outcome == Outcome::kPending && record.sent) {
      uint64_t& left = rejections[static_cast<size_t>(record.conn)];
      if (left > 0) {
        --left;
        record.outcome = Outcome::kRejected;
      } else {
        record.outcome = Outcome::kMissing;
      }
    }
    switch (record.outcome) {
      case Outcome::kOk: ++phase->counts.ok; break;
      case Outcome::kAppError: ++phase->counts.app_error; break;
      case Outcome::kRejected: ++phase->counts.rejected; break;
      case Outcome::kTransport: ++phase->counts.transport; break;
      case Outcome::kMissing: ++phase->counts.missing; break;
      case Outcome::kPending: break;  // never sent
    }
  }
  // Late answers of this phase must not be matched against the next one.
  for (const auto& conn : conns_) {
    conn->unanswered = 0;
    conn->rejections = 0;
  }
  next_id_ += phase->requests.size();
}

PhaseResult LoadClient::RunOpenLoop(const std::vector<Arrival>& arrivals,
                                    double grace_ms, bool mark_traced) {
  PhaseResult phase;
  phase.requests.resize(arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    RequestRecord& record = phase.requests[i];
    record.write = arrivals[i].write;
    record.conn = static_cast<int>(i % conns_.size());
    record.due_ms = arrivals[i].due_ms;
    record.line = arrivals[i].line;
  }
  const double last_due = arrivals.empty() ? 0.0 : arrivals.back().due_ms;
  phase.window_ms = last_due;
  phase.start = Clock::now();
  size_t next = 0;
  for (;;) {
    const double now = MsBetween(phase.start, Clock::now());
    while (next < arrivals.size() && arrivals[next].due_ms <= now) {
      Send(&phase, next, mark_traced && next % 2 == 0);
      ++next;
    }
    if (next == arrivals.size() &&
        (Outstanding() == 0 || now > last_due + grace_ms)) {
      break;
    }
    const double wait =
        next < arrivals.size() ? arrivals[next].due_ms - now : 5.0;
    Poll(&phase, std::min(wait, 5.0));
  }
  Finish(&phase);
  return phase;
}

PhaseResult LoadClient::RunClosedLoop(
    const std::function<std::string()>& next_write, double window_ms,
    int depth, double grace_ms) {
  PhaseResult phase;
  phase.window_ms = window_ms;
  // Capacity for every request the window could take; records never move
  // while the loop runs, so indices stay valid.
  phase.requests.reserve(1 << 18);
  phase.start = Clock::now();
  auto launch = [&](int conn) {
    if (phase.requests.size() == phase.requests.capacity()) return;
    RequestRecord record;
    record.write = true;
    record.conn = conn;
    record.due_ms = MsBetween(phase.start, Clock::now());
    record.line = next_write();
    phase.requests.push_back(std::move(record));
    Send(&phase, phase.requests.size() - 1, false);
  };
  for (int d = 0; d < depth; ++d) {
    for (size_t c = 0; c < conns_.size(); ++c) launch(static_cast<int>(c));
  }
  for (;;) {
    const double now = MsBetween(phase.start, Clock::now());
    if (now >= window_ms &&
        (Outstanding() == 0 || now > window_ms + grace_ms)) {
      break;
    }
    for (size_t c : Poll(&phase, 5.0)) {
      if (MsBetween(phase.start, Clock::now()) < window_ms) {
        launch(static_cast<int>(c));
      }
    }
  }
  Finish(&phase);
  return phase;
}

}  // namespace perfbench
