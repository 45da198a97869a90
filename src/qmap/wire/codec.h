#ifndef QMAP_WIRE_CODEC_H_
#define QMAP_WIRE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "qmap/common/status.h"
#include "qmap/core/translator.h"

namespace qmap {

class RenderMemo;

// ---------------------------------------------------------------------------
// The one binary value encoding shared by the persistent translation store
// and the wire protocol. A Translation serialized here is rebuilt
// byte-identical to the original on the other side — queries round-trip
// through ToParseableText/ParseQuery, coverage through its fingerprint
// entries — which is what makes replay-from-disk and translate-over-the-wire
// indistinguishable from translating locally.
//
//   str        := u32 length | bytes                             -- all LE
//   translation:= str(mapped) str(filter) u32 n  n * (u64 fp, u8 exact)
//   status     := u32 code  str(message)
// ---------------------------------------------------------------------------

void PutU8(std::string* out, uint8_t v);
void PutU16(std::string* out, uint16_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutStr(std::string* out, std::string_view s);

/// Bounds-checked little-endian reader over an encoded payload. Every Read
/// returns false (without advancing past the end) on truncation; decoders
/// built on it therefore reject any malformed input instead of crashing.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* out);
  bool ReadU16(uint16_t* out);
  bool ReadU32(uint32_t* out);
  bool ReadU64(uint64_t* out);
  bool ReadStr(std::string_view* out);
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Appends the translation body (mapped/filter/coverage; stats are
/// per-invocation and never serialized). With a `memo`, the two query texts
/// are rendered through it (the same bytes, fewer renders); its owner alone
/// may pass it.
void EncodeTranslationBody(std::string* out, const Translation& value,
                           RenderMemo* memo = nullptr);

/// Decodes a translation body in place. Does not require the reader to be
/// at end afterwards (wire messages embed the body mid-payload; the store
/// checks AtEnd itself).
Result<Translation> DecodeTranslationBody(PayloadReader& reader);

/// Appends a status body (code + message).
void EncodeStatusBody(std::string* out, const Status& status);

/// Decodes a status body into *out; rejects out-of-range status codes.
/// (Out-param rather than Result<Status>: Result of its own error type is
/// ill-formed.)
bool DecodeStatusBody(PayloadReader& reader, Status* out);

}  // namespace qmap

#endif  // QMAP_WIRE_CODEC_H_
