#include "qmap/wire/frame.h"

#include <cstring>

#include "qmap/common/fnv.h"
#include "qmap/wire/codec.h"

namespace qmap {

namespace {
bool KnownType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kTranslateRequest) &&
         type <= static_cast<uint8_t>(FrameType::kCatalogResponse);
}
}  // namespace

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(Frame::kHeaderBytes + payload.size());
  out.append(Frame::kMagic, sizeof(Frame::kMagic));
  PutU8(&out, Frame::kVersion);
  PutU8(&out, static_cast<uint8_t>(type));
  PutU16(&out, 0);  // reserved
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU64(&out, WordHash64(payload));
  out.append(payload);
  return out;
}

FrameDecodeResult DecodeFrame(std::string_view buf, FrameType* type,
                              std::string_view* payload, size_t* frame_len) {
  if (buf.size() < Frame::kHeaderBytes) {
    // Reject a wrong-protocol peer on the very first bytes rather than
    // waiting for a full header that will never come.
    if (std::memcmp(buf.data(), Frame::kMagic,
                    std::min(buf.size(), sizeof(Frame::kMagic))) != 0) {
      return FrameDecodeResult::kMalformed;
    }
    return FrameDecodeResult::kNeedMore;
  }
  if (std::memcmp(buf.data(), Frame::kMagic, sizeof(Frame::kMagic)) != 0) {
    return FrameDecodeResult::kMalformed;
  }
  PayloadReader header(buf.substr(sizeof(Frame::kMagic)));
  uint8_t version = 0;
  uint8_t raw_type = 0;
  uint16_t reserved = 0;
  uint32_t length = 0;
  uint64_t checksum = 0;
  header.ReadU8(&version);
  header.ReadU8(&raw_type);
  header.ReadU16(&reserved);
  header.ReadU32(&length);
  header.ReadU64(&checksum);
  if (version != Frame::kVersion || !KnownType(raw_type) ||
      length > Frame::kMaxPayloadBytes) {
    return FrameDecodeResult::kMalformed;
  }
  const size_t total = Frame::kHeaderBytes + length;
  if (buf.size() < total) return FrameDecodeResult::kNeedMore;
  std::string_view body = buf.substr(Frame::kHeaderBytes, length);
  if (WordHash64(body) != checksum) return FrameDecodeResult::kMalformed;
  *type = static_cast<FrameType>(raw_type);
  *payload = body;
  *frame_len = total;
  return FrameDecodeResult::kFrame;
}

}  // namespace qmap
