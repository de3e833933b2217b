#include "net/frame.h"

#include <cstring>

#include "net/compress.h"

namespace gepc {
namespace net {
namespace {

inline void PutU16(uint16_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

inline void PutU32(uint32_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

inline uint16_t GetU16(const char* p) {
  return static_cast<uint16_t>(static_cast<unsigned char>(p[0]) |
                               (static_cast<unsigned char>(p[1]) << 8));
}

inline uint32_t GetU32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

bool IsValidFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kReplError);
}

}  // namespace

uint16_t FrameChecksum(std::string_view payload) {
  uint64_t h = 1469598103934665603ULL;
  for (const char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<uint16_t>(h & 0xffff);
}

std::string EncodeFrame(FrameType type, std::string_view payload,
                        bool allow_compression) {
  uint8_t flags = 0;
  std::string compressed_payload;
  std::string_view wire = payload;
  if (allow_compression && payload.size() >= kCompressMinBytes) {
    std::string packed = GlzCompress(payload);
    if (packed.size() + 4 < payload.size()) {
      compressed_payload.reserve(packed.size() + 4);
      PutU32(static_cast<uint32_t>(payload.size()), &compressed_payload);
      compressed_payload += packed;
      wire = compressed_payload;
      flags |= kFlagCompressed;
    }
  }
  std::string out;
  out.reserve(kFrameHeaderBytes + wire.size());
  PutU16(kFrameMagic, &out);
  out.push_back(static_cast<char>(kFrameVersion));
  out.push_back(static_cast<char>(type));
  out.push_back(static_cast<char>(flags));
  out.push_back(0);  // reserved
  PutU16(FrameChecksum(wire), &out);
  PutU32(static_cast<uint32_t>(wire.size()), &out);
  out += wire;
  return out;
}

void FrameDecoder::Feed(const char* data, size_t size) {
  if (dead_) return;
  // Compact once the consumed prefix dominates, so a long-lived connection
  // doesn't grow its buffer forever.
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

FrameDecoder::Next FrameDecoder::Pop(Frame* out, Status* error) {
  if (dead_) {
    *error = Status::FailedPrecondition("frame stream already corrupt");
    return Next::kError;
  }
  const size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return Next::kNeedMore;
  const char* header = buffer_.data() + consumed_;

  auto fail = [&](std::string message) {
    dead_ = true;
    *error = Status::InvalidArgument("frame: " + std::move(message));
    return Next::kError;
  };

  if (GetU16(header) != kFrameMagic) return fail("bad magic");
  const auto version = static_cast<uint8_t>(header[2]);
  if (version != kFrameVersion) {
    return fail("unsupported version " + std::to_string(version));
  }
  const auto type = static_cast<uint8_t>(header[3]);
  if (!IsValidFrameType(type)) {
    return fail("unknown type " + std::to_string(type));
  }
  const auto flags = static_cast<uint8_t>(header[4]);
  if ((flags & ~kFlagCompressed) != 0) {
    return fail("unknown flags " + std::to_string(flags));
  }
  if (header[5] != 0) return fail("nonzero reserved byte");
  const uint16_t checksum = GetU16(header + 6);
  const uint32_t length = GetU32(header + 8);
  if (length > kMaxFramePayload) {
    return fail("payload length " + std::to_string(length) + " exceeds cap");
  }
  if (available < kFrameHeaderBytes + length) return Next::kNeedMore;

  const std::string_view wire(header + kFrameHeaderBytes, length);
  if (FrameChecksum(wire) != checksum) return fail("checksum mismatch");

  out->type = static_cast<FrameType>(type);
  out->compressed = (flags & kFlagCompressed) != 0;
  if (out->compressed) {
    if (length < 4) return fail("compressed payload shorter than its prefix");
    const uint32_t raw_size = GetU32(wire.data());
    if (raw_size > kMaxFramePayload) {
      return fail("declared raw size exceeds cap");
    }
    auto inflated = GlzDecompress(wire.substr(4), raw_size);
    if (!inflated.ok()) return fail(inflated.status().message());
    out->payload = *std::move(inflated);
  } else {
    out->payload.assign(wire.data(), wire.size());
  }
  consumed_ += kFrameHeaderBytes + length;
  return Next::kFrame;
}

}  // namespace net
}  // namespace gepc
