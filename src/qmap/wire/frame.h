#ifndef QMAP_WIRE_FRAME_H_
#define QMAP_WIRE_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace qmap {

/// Message kinds carried by the qmap wire protocol (see docs/FEDERATION.md).
enum class FrameType : uint8_t {
  kTranslateRequest = 1,
  kTranslateResponse = 2,
  kCatalogRequest = 3,
  kCatalogResponse = 4,
};

/// The qmap RPC frame — the same length-prefixed, checksummed discipline as
/// the store's record log (qmap/store/record_log.h), with a magic and
/// version so a stray client speaking the wrong protocol (or an old binary)
/// is rejected at the first frame instead of being misparsed. Version 2
/// added the multi-source translate messages (qmap/wire/messages.h);
/// version 3 checksums the payload with WordHash64 (qmap/common/fnv.h), a
/// word at a time, where versions 1 and 2 used byte-wise FNV-1a. A peer of
/// an older version and this one reject each other's frames at the header:
///
///   "QWIR" magic (4) | u8 version (1) | u8 type | u16 reserved (0)
///   | u32 LE payload length | u64 LE WordHash64 of payload | payload
///
/// A frame is assembled fully before writing, so — like log records — a
/// receiver can only ever observe a clean prefix of frames plus at most one
/// partial tail; DecodeFrame distinguishes "wait for more bytes" from
/// "protocol violation, close the connection".
struct Frame {
  static constexpr char kMagic[4] = {'Q', 'W', 'I', 'R'};
  static constexpr uint8_t kVersion = 3;
  static constexpr size_t kHeaderBytes = 20;
  /// Upper bound on one payload; a bigger length prefix is treated as a
  /// protocol violation (a translate message is a few hundred bytes).
  static constexpr uint32_t kMaxPayloadBytes = 16u << 20;
};

/// Assembles one complete frame around `payload`.
std::string EncodeFrame(FrameType type, std::string_view payload);

enum class FrameDecodeResult {
  kNeedMore,   // `buf` holds only a prefix of a frame; read more
  kFrame,      // one complete, checksum-valid frame decoded
  kMalformed,  // bad magic/version/type/length/checksum; close the peer
};

/// Examines the front of `buf`. On kFrame, *type and *payload describe the
/// first frame (payload aliases buf) and *frame_len is its total size —
/// consume that many bytes before the next call.
FrameDecodeResult DecodeFrame(std::string_view buf, FrameType* type,
                              std::string_view* payload, size_t* frame_len);

}  // namespace qmap

#endif  // QMAP_WIRE_FRAME_H_
