#include "qmap/wire/messages.h"

#include <utility>

#include "qmap/wire/codec.h"

namespace qmap {

namespace {

// Smallest encodings, for bounding a declared count by the bytes left: a
// source name is at least its u32 length; a reply at least its ok byte plus
// a status body (u32 code, u32 message length).
constexpr size_t kMinSourceBytes = 4;
constexpr size_t kMinReplyBytes = 9;

//   reply := u8 ok | (translation body if ok, else status body)
void EncodeReply(std::string* out, const SourceReply& reply,
                 RenderMemo* memo) {
  PutU8(out, reply.ok ? 1 : 0);
  if (reply.ok) {
    EncodeTranslationBody(out, reply.value, memo);
  } else {
    EncodeStatusBody(out, reply.failure);
  }
}

bool DecodeReply(PayloadReader& r, SourceReply* reply) {
  uint8_t ok = 0;
  if (!r.ReadU8(&ok) || ok > 1) return false;
  reply->ok = ok == 1;
  if (!reply->ok) return DecodeStatusBody(r, &reply->failure);
  Result<Translation> value = DecodeTranslationBody(r);
  if (!value.ok()) return false;
  reply->value = std::move(value).value();
  return true;
}

}  // namespace

//   request := u64 id | str source | str query | u32 deadline_ms
//              | u32 n | n * str(further source)
std::string EncodeTranslateRequest(const TranslateRequest& request) {
  std::string out;
  PutU64(&out, request.request_id);
  PutStr(&out, request.source);
  PutStr(&out, request.query_text);
  PutU32(&out, request.deadline_ms);
  PutU32(&out, static_cast<uint32_t>(request.further_sources.size()));
  for (const std::string& source : request.further_sources) {
    PutStr(&out, source);
  }
  return out;
}

Result<TranslateRequest> DecodeTranslateRequest(std::string_view payload) {
  PayloadReader r(payload);
  TranslateRequest request;
  std::string_view source;
  std::string_view query_text;
  uint32_t n = 0;
  if (!r.ReadU64(&request.request_id) || !r.ReadStr(&source) ||
      !r.ReadStr(&query_text) || !r.ReadU32(&request.deadline_ms) ||
      !r.ReadU32(&n) || n > r.remaining() / kMinSourceBytes) {
    return Status::ParseError("wire: malformed TranslateRequest");
  }
  request.source = std::string(source);
  request.query_text = std::string(query_text);
  // The bound above rejects a count the payload cannot hold; past it, memory
  // grows only with entries that actually decode.
  for (uint32_t i = 0; i < n; ++i) {
    std::string_view further;
    if (!r.ReadStr(&further)) {
      return Status::ParseError("wire: malformed TranslateRequest source");
    }
    request.further_sources.emplace_back(further);
  }
  if (!r.AtEnd()) {
    return Status::ParseError("wire: trailing bytes in TranslateRequest");
  }
  return request;
}

//   response := u64 id | reply(first source) | u32 n | n * reply
std::string EncodeTranslateResponse(const TranslateResponse& response,
                                    RenderMemo* memo) {
  std::string out;
  PutU64(&out, response.request_id);
  EncodeReply(&out, response, memo);
  PutU32(&out, static_cast<uint32_t>(response.further.size()));
  for (const SourceReply& reply : response.further) {
    EncodeReply(&out, reply, memo);
  }
  return out;
}

Result<TranslateResponse> DecodeTranslateResponse(std::string_view payload) {
  PayloadReader r(payload);
  TranslateResponse response;
  uint32_t n = 0;
  if (!r.ReadU64(&response.request_id) || !DecodeReply(r, &response) ||
      !r.ReadU32(&n) || n > r.remaining() / kMinReplyBytes) {
    return Status::ParseError("wire: malformed TranslateResponse");
  }
  for (uint32_t i = 0; i < n; ++i) {
    SourceReply reply;
    if (!DecodeReply(r, &reply)) {
      return Status::ParseError("wire: malformed TranslateResponse reply");
    }
    response.further.push_back(std::move(reply));
  }
  if (!r.AtEnd()) {
    return Status::ParseError("wire: trailing bytes in TranslateResponse");
  }
  return response;
}

std::string EncodeCatalogResponse(const CatalogResponse& response) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(response.sources.size()));
  for (const CatalogEntry& entry : response.sources) {
    PutStr(&out, entry.name);
    PutU64(&out, entry.rule_set_fp);
  }
  return out;
}

Result<CatalogResponse> DecodeCatalogResponse(std::string_view payload) {
  PayloadReader r(payload);
  uint32_t n = 0;
  if (!r.ReadU32(&n)) {
    return Status::ParseError("wire: malformed CatalogResponse");
  }
  CatalogResponse response;
  response.sources.reserve(std::min<uint32_t>(n, 1024));
  for (uint32_t i = 0; i < n; ++i) {
    std::string_view name;
    uint64_t fp = 0;
    if (!r.ReadStr(&name) || !r.ReadU64(&fp)) {
      return Status::ParseError("wire: malformed CatalogResponse entry");
    }
    response.sources.push_back(CatalogEntry{std::string(name), fp});
  }
  if (!r.AtEnd()) {
    return Status::ParseError("wire: trailing bytes in CatalogResponse");
  }
  return response;
}

}  // namespace qmap
