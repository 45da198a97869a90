#ifndef QMAP_WIRE_MESSAGES_H_
#define QMAP_WIRE_MESSAGES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "qmap/common/status.h"
#include "qmap/core/translator.h"

namespace qmap {

class RenderMemo;

/// One translate call, front-end → worker, for every source of one request
/// that the worker serves. Each S_i(Q) depends only on Q and source i's
/// rules, so the query travels once and the worker parses it once. The
/// front-end sends the *full* query — view constraints already conjoined,
/// exactly what the single-process service hands each source's translator —
/// rendered through ToParseableText, so the worker parses back the identical
/// normalized query and every translation is byte-identical to the
/// in-process path.
struct TranslateRequest {
  uint64_t request_id = 0;   // echoes back in the response; connection-scoped
  std::string source;        // first listed source (registered on the worker)
  std::string query_text;    // ToParseableText of the full query
  uint32_t deadline_ms = 0;  // remaining budget for the whole call; 0 = none
  /// The further sources to translate the same query for, in order. Each
  /// gets one reply in TranslateResponse::further, in this order.
  std::vector<std::string> further_sources;
};

/// One source's answer. Exactly one of value/failure is meaningful, per
/// `ok`. Failures travel as a Status so the front-end's resilience layer
/// treats a remote breaker/deadline/unavailable exactly like a local one.
struct SourceReply {
  bool ok = false;
  Translation value;  // when ok
  Status failure;     // when !ok
};

/// Worker → front-end: the first listed source's reply (the SourceReply
/// base) followed by one reply per further source, in request order.
struct TranslateResponse : SourceReply {
  uint64_t request_id = 0;
  std::vector<SourceReply> further;
};

/// Worker catalog: which sources it serves and under which rule-set
/// fingerprint — everything the front-end needs to mint the same 192-bit
/// cache keys the worker uses, keeping the tiers' invalidation aligned.
struct CatalogEntry {
  std::string name;
  uint64_t rule_set_fp = 0;
};

struct CatalogResponse {
  std::vector<CatalogEntry> sources;
};

// Payload codecs (framing is qmap/wire/frame.h). Decoders are total: any
// malformed payload yields an error status, never UB — pinned by the wire
// fuzz tests. A declared count larger than the rest of the payload could
// hold fails before anything is allocated for it. A CatalogRequest has an
// empty payload and no struct.
std::string EncodeTranslateRequest(const TranslateRequest& request);
Result<TranslateRequest> DecodeTranslateRequest(std::string_view payload);

/// With a `memo`, every translation's query texts are rendered through it
/// (EncodeTranslationBody); the bytes are the same.
std::string EncodeTranslateResponse(const TranslateResponse& response,
                                    RenderMemo* memo = nullptr);
Result<TranslateResponse> DecodeTranslateResponse(std::string_view payload);

std::string EncodeCatalogResponse(const CatalogResponse& response);
Result<CatalogResponse> DecodeCatalogResponse(std::string_view payload);

}  // namespace qmap

#endif  // QMAP_WIRE_MESSAGES_H_
