#ifndef GEPC_NET_CLIENT_H_
#define GEPC_NET_CLIENT_H_

#include <atomic>
#include <mutex>
#include <string>
#include <string_view>

#include "common/result.h"
#include "net/frame.h"

namespace gepc {
namespace net {

/// Blocking GFRM client for one connection at a time — the follower's
/// replication link, gepc_bots' control channel and the net tests all speak
/// through it. One owning thread connects, sends, receives and closes; any
/// other thread may only call Interrupt().
class FrameClient {
 public:
  FrameClient() = default;
  ~FrameClient() { Close(); }

  FrameClient(const FrameClient&) = delete;
  FrameClient& operator=(const FrameClient&) = delete;

  /// Drops any previous connection, then opens a TCP connection to
  /// host:port with TCP_NODELAY set. kUnavailable when the host does not
  /// resolve, the connect fails, or the client was interrupted.
  Status Connect(const std::string& host, int port);

  /// Hello -> Welcome on the open connection; returns the Welcome payload.
  /// kUnavailable when the server answers with anything but Welcome.
  Result<std::string> Handshake(int timeout_ms);

  /// Encodes and sends one frame; `compress` GLZ1-compresses the payload
  /// when that shrinks it (EncodeFrame's allow_compression).
  Status Send(FrameType type, std::string_view payload, bool compress = false);

  /// Sends raw bytes as they are, framed or not.
  Status SendBytes(std::string_view bytes);

  /// Waits up to `timeout_ms` (at least 1) for one frame. kUnavailable on
  /// timeout or after Interrupt(), kNotFound on EOF or reset, and the
  /// decoder's error (kInvalidArgument) on a corrupt stream.
  Status Recv(Frame* out, int timeout_ms);

  /// Thread-safe. Shuts the open connection down so a blocked Recv or Send
  /// returns at once, and makes every later Connect fail: an interrupted
  /// client stays interrupted. Serialised with Connect and Close, so it
  /// never touches a closed (and possibly reused) descriptor.
  void Interrupt();

  /// Closes the connection, if any. Idempotent.
  void Close();

  bool is_open() const { return fd_ >= 0; }

 private:
  std::mutex mu_;  ///< guards fd_ writes against Interrupt()
  int fd_ = -1;
  std::atomic<bool> interrupted_{false};
  FrameDecoder decoder_;
};

}  // namespace net
}  // namespace gepc

#endif  // GEPC_NET_CLIENT_H_
