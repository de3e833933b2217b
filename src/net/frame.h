#ifndef GEPC_NET_FRAME_H_
#define GEPC_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace gepc {
namespace net {

/// Wire framing for the gepc_serve socket protocol (GFRM): every message is
/// one length-prefixed binary frame,
///
///   offset  size  field
///   0       2     magic 0x4647 ("GF", little-endian u16)
///   2       1     version (kFrameVersion)
///   3       1     type (FrameType)
///   4       1     flags (FrameFlags bit set)
///   5       1     reserved, must be zero
///   6       2     checksum: FNV-1a-64 of the wire payload, low 16 bits (LE)
///   8       4     payload length in bytes (LE), <= kMaxFramePayload
///   12      n     payload
///
/// With kFlagCompressed the wire payload is a u32 raw-size prefix (LE)
/// followed by the GLZ1 stream (net/compress.h); the decoder hands callers
/// the decompressed payload. See docs/network-protocol.md.
inline constexpr uint16_t kFrameMagic = 0x4647;
inline constexpr uint8_t kFrameVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;

/// Hard payload cap: a hostile or desynchronized peer cannot make the
/// server allocate more than this per frame.
inline constexpr uint32_t kMaxFramePayload = 16u * 1024 * 1024;

enum class FrameType : uint8_t {
  kHello = 1,    ///< client -> server: open a session (JSON payload)
  kWelcome = 2,  ///< server -> client: session granted (JSON payload)
  kRequest = 3,  ///< client -> server: one JSONL command line
  kResponse = 4, ///< server -> client: the command's JSONL response
  kStatus = 5,   ///< server -> client: transport-level condition (JSON
                 ///< {"ok":false,"code":...,"error":...}); e.g. admission-
                 ///< control rejection or a protocol violation

  // Replication (src/repl/, docs/replication.md). A follower opens a
  // normal session (Hello/Welcome), then sends one kReplSync; everything
  // after that is pushed primary -> follower on the same connection.
  kReplSync = 6,       ///< follower -> primary: {"have":N[,"need_base":b]}
  kReplCkptBegin = 7,  ///< primary -> follower: {"version":V,"bytes":B}
  kReplCkptChunk = 8,  ///< primary -> follower: raw GCKP1 bytes (in order)
  kReplRow = 9,        ///< primary -> follower: "<seq> <GOPS1 row>"
  kReplHeartbeat = 10, ///< primary -> follower: {"version":V} keepalive
  kReplError = 11,     ///< primary -> follower: {"error":...}; the sync is
                       ///< dead, the follower must reconnect and resync
};

enum FrameFlags : uint8_t {
  kFlagCompressed = 0x01,
};

struct Frame {
  FrameType type = FrameType::kStatus;
  std::string payload;
  /// Whether the payload travelled compressed (already inflated here).
  bool compressed = false;
};

/// Encodes one frame. With allow_compression, payloads of at least
/// kCompressMinBytes are GLZ1-compressed when that actually shrinks the
/// wire payload (raw-size prefix included) — otherwise sent raw.
std::string EncodeFrame(FrameType type, std::string_view payload,
                        bool allow_compression = false);

/// Incremental frame decoder for one connection: feed arbitrary byte
/// chunks as they arrive, pop complete frames. Any malformed header or
/// payload (bad magic/version/type, nonzero reserved byte, oversized
/// length, checksum mismatch, corrupt compression stream) is a permanent
/// error — framing is lost, the connection must be closed.
class FrameDecoder {
 public:
  enum class Next {
    kFrame,     ///< *out was filled with one complete frame
    kNeedMore,  ///< no complete frame buffered yet
    kError,     ///< stream corrupt; *error says why, decoder is dead
  };

  void Feed(const char* data, size_t size);
  void Feed(std::string_view data) { Feed(data.data(), data.size()); }

  Next Pop(Frame* out, Status* error);

 private:
  std::string buffer_;
  size_t consumed_ = 0;
  bool dead_ = false;
};

/// Low 16 bits of FNV-1a-64 — the frame checksum.
uint16_t FrameChecksum(std::string_view payload);

}  // namespace net
}  // namespace gepc

#endif  // GEPC_NET_FRAME_H_
