#include "net/client.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace gepc {
namespace net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

Status FrameClient::Connect(const std::string& host, int port) {
  Close();
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const std::string port_text = std::to_string(port);
  if (getaddrinfo(host.c_str(), port_text.c_str(), &hints, &found) != 0 ||
      found == nullptr) {
    return Status::Unavailable("cannot resolve " + host);
  }
  const int fd =
      socket(found->ai_family, found->ai_socktype, found->ai_protocol);
  if (fd < 0) {
    freeaddrinfo(found);
    return Status::Unavailable(Errno("socket"));
  }
  const int rc = connect(fd, found->ai_addr, found->ai_addrlen);
  freeaddrinfo(found);
  if (rc != 0) {
    const std::string reason = Errno("connect " + host + ":" + port_text);
    close(fd);
    return Status::Unavailable(reason);
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::lock_guard<std::mutex> lock(mu_);
  // Checked under the lock: an Interrupt() that ran before or during
  // connect() found no descriptor to shut down, so this one must not be
  // published.
  if (interrupted_.load(std::memory_order_acquire)) {
    close(fd);
    return Status::Unavailable("client interrupted");
  }
  fd_ = fd;
  return Status::OK();
}

Result<std::string> FrameClient::Handshake(int timeout_ms) {
  GEPC_RETURN_IF_ERROR(Send(FrameType::kHello, "{}"));
  Frame frame;
  GEPC_RETURN_IF_ERROR(Recv(&frame, timeout_ms));
  if (frame.type != FrameType::kWelcome) {
    return Status::Unavailable("server did not welcome us: " + frame.payload);
  }
  return std::move(frame.payload);
}

Status FrameClient::Send(FrameType type, std::string_view payload,
                         bool compress) {
  return SendBytes(EncodeFrame(type, payload, compress));
}

Status FrameClient::SendBytes(std::string_view bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  while (!bytes.empty()) {
    const ssize_t n = send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::Unavailable(Errno("send"));
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

Status FrameClient::Recv(Frame* out, int timeout_ms) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(std::max(1, timeout_ms));
  Status error;
  for (;;) {
    switch (decoder_.Pop(out, &error)) {
      case FrameDecoder::Next::kFrame:
        return Status::OK();
      case FrameDecoder::Next::kError:
        return error;
      case FrameDecoder::Next::kNeedMore:
        break;
    }
    if (interrupted_.load(std::memory_order_acquire)) {
      return Status::Unavailable("client interrupted");
    }
    if (fd_ < 0) return Status::FailedPrecondition("not connected");
    const auto remaining = std::chrono::ceil<std::chrono::milliseconds>(
                               deadline - Clock::now())
                               .count();
    if (remaining <= 0) return Status::Unavailable("frame read timed out");
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = poll(&pfd, 1, static_cast<int>(remaining));
    if (ready < 0 && errno != EINTR) return Status::Unavailable(Errno("poll"));
    if (ready <= 0) continue;  // EINTR or timeout: the checks above decide
    char buffer[65536];
    const ssize_t n = read(fd_, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      // After Interrupt() the shutdown reads as EOF; report the interrupt.
      if (interrupted_.load(std::memory_order_acquire)) continue;
      return Status::NotFound(n == 0 ? "peer closed the connection"
                                     : Errno("read"));
    }
    decoder_.Feed(buffer, static_cast<size_t>(n));
  }
}

void FrameClient::Interrupt() {
  std::lock_guard<std::mutex> lock(mu_);
  interrupted_.store(true, std::memory_order_release);
  if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
}

void FrameClient::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  decoder_ = FrameDecoder();
}

}  // namespace net
}  // namespace gepc
