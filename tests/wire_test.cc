// Tests for the qmap wire protocol: frame and message codecs (round-trip
// plus seeded corruption fuzz — decoders must be total), and the QmapServer
// front door over real sockets: translate/catalog round-trips byte-identical
// to in-process translation, malformed frames, per-connection quotas,
// admission control and read backpressure, the cache-first answer on the
// event-loop thread, and hot service reload. The WireClient tests cover
// connection pooling and send deadlines.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "qmap/contexts/synthetic.h"
#include "qmap/expr/parser.h"
#include "qmap/expr/printer.h"
#include "qmap/service/fault_injection.h"
#include "qmap/service/source_transport.h"
#include "qmap/service/translation_service.h"
#include "qmap/wire/frame.h"
#include "qmap/wire/messages.h"
#include "qmap/wire/qmap_server.h"
#include "qmap/wire/wire_client.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::Q;

// ---------------------------------------------------------------------------
// Frame codec

TEST(WireFrame, RoundTripsAndConsumesExactly) {
  const std::string payload = "hello wire";
  std::string buf = EncodeFrame(FrameType::kTranslateRequest, payload);
  buf += EncodeFrame(FrameType::kCatalogRequest, "");

  FrameType type;
  std::string_view got;
  size_t frame_len = 0;
  ASSERT_EQ(DecodeFrame(buf, &type, &got, &frame_len),
            FrameDecodeResult::kFrame);
  EXPECT_EQ(type, FrameType::kTranslateRequest);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(frame_len, Frame::kHeaderBytes + payload.size());

  std::string_view rest = std::string_view(buf).substr(frame_len);
  ASSERT_EQ(DecodeFrame(rest, &type, &got, &frame_len),
            FrameDecodeResult::kFrame);
  EXPECT_EQ(type, FrameType::kCatalogRequest);
  EXPECT_EQ(got, "");
  EXPECT_EQ(rest.size(), frame_len);
}

TEST(WireFrame, PartialPrefixWantsMoreBytes) {
  const std::string frame = EncodeFrame(FrameType::kTranslateResponse, "body");
  FrameType type;
  std::string_view payload;
  size_t frame_len = 0;
  for (size_t n = 0; n < frame.size(); ++n) {
    EXPECT_EQ(DecodeFrame(std::string_view(frame).substr(0, n), &type,
                          &payload, &frame_len),
              FrameDecodeResult::kNeedMore)
        << "prefix " << n;
  }
}

TEST(WireFrame, WrongMagicIsRejectedBeforeTheFullHeaderArrives) {
  FrameType type;
  std::string_view payload;
  size_t frame_len = 0;
  // "GET " is how an HTTP client lost on the wrong port introduces itself.
  EXPECT_EQ(DecodeFrame("GET ", &type, &payload, &frame_len),
            FrameDecodeResult::kMalformed);
  // Even a single wrong leading byte is enough.
  EXPECT_EQ(DecodeFrame("X", &type, &payload, &frame_len),
            FrameDecodeResult::kMalformed);
}

TEST(WireFrame, CorruptionIsMalformedNeverUb) {
  const std::string base = EncodeFrame(FrameType::kTranslateRequest,
                                       "a payload long enough to bit-flip");
  FrameType type;
  std::string_view payload;
  size_t frame_len = 0;

  // Oversized declared length.
  std::string oversized = base;
  const uint32_t huge = Frame::kMaxPayloadBytes + 1;
  std::memcpy(&oversized[8], &huge, sizeof(huge));
  EXPECT_EQ(DecodeFrame(oversized, &type, &payload, &frame_len),
            FrameDecodeResult::kMalformed);

  // Wrong version.
  std::string bad_version = base;
  bad_version[4] = static_cast<char>(Frame::kVersion + 1);
  EXPECT_EQ(DecodeFrame(bad_version, &type, &payload, &frame_len),
            FrameDecodeResult::kMalformed);

  // Unknown frame type.
  std::string bad_type = base;
  bad_type[5] = 99;
  EXPECT_EQ(DecodeFrame(bad_type, &type, &payload, &frame_len),
            FrameDecodeResult::kMalformed);

  // Every single-bit flip of the whole frame: the decoder never crashes and
  // never yields a frame whose payload is not checksum-consistent. (Flips in
  // the reserved header bytes or a self-consistent mutation may still decode
  // — what is pinned is totality, not detection of every corruption.)
  for (size_t byte = 0; byte < base.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = base;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      FrameDecodeResult r = DecodeFrame(flipped, &type, &payload, &frame_len);
      if (r == FrameDecodeResult::kFrame) {
        EXPECT_LE(frame_len, flipped.size());
        EXPECT_LE(payload.size(), Frame::kMaxPayloadBytes);
      }
    }
  }
}

TEST(WireFrame, VersionOneFramesAreMalformed) {
  // A peer built before multi-source translate messages speaks version 1:
  // its frames are rejected at the header instead of being misparsed.
  std::string frame = EncodeFrame(FrameType::kTranslateRequest, "payload");
  EXPECT_EQ(static_cast<int>(frame[4]), 2);
  frame[4] = 1;
  FrameType type;
  std::string_view payload;
  size_t frame_len = 0;
  EXPECT_EQ(DecodeFrame(frame, &type, &payload, &frame_len),
            FrameDecodeResult::kMalformed);
}

TEST(WireFrame, SeededRandomBytesNeverCrashTheDecoder) {
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<size_t> len(0, 256);
  for (int i = 0; i < 2000; ++i) {
    std::string buf(len(rng), '\0');
    for (char& c : buf) c = static_cast<char>(byte(rng));
    // Half the time, lead with a valid magic so deeper header paths run.
    if (i % 2 == 0 && buf.size() >= 4) std::memcpy(&buf[0], "QWIR", 4);
    FrameType type;
    std::string_view payload;
    size_t frame_len = 0;
    FrameDecodeResult r = DecodeFrame(buf, &type, &payload, &frame_len);
    if (r == FrameDecodeResult::kFrame) EXPECT_LE(frame_len, buf.size());
  }
}

// ---------------------------------------------------------------------------
// Message codecs

TEST(WireMessages, TranslateRequestRoundTrips) {
  TranslateRequest request;
  request.request_id = 42;
  request.source = "CLBooks";
  request.query_text = "[author ~ 'knuth'] and [year >= 1990]";
  request.deadline_ms = 250;
  auto back = DecodeTranslateRequest(EncodeTranslateRequest(request));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->request_id, 42u);
  EXPECT_EQ(back->source, "CLBooks");
  EXPECT_EQ(back->query_text, request.query_text);
  EXPECT_EQ(back->deadline_ms, 250u);
}

TEST(WireMessages, TranslateResponseRoundTripsBothArms) {
  {
    TranslateResponse ok_response;
    ok_response.request_id = 7;
    ok_response.ok = true;
    ok_response.value.mapped = Q("[a = 1] or [b = 2]");
    ok_response.value.filter = Q("[c = 3]");
    ok_response.value.coverage.RestoreEntry(0xabcd, true);
    auto back = DecodeTranslateResponse(EncodeTranslateResponse(ok_response));
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(back->ok);
    EXPECT_EQ(ToParseableText(back->value.mapped),
              ToParseableText(ok_response.value.mapped));
    EXPECT_EQ(ToParseableText(back->value.filter),
              ToParseableText(ok_response.value.filter));
    EXPECT_EQ(back->value.coverage.Entries(),
              ok_response.value.coverage.Entries());
  }
  {
    TranslateResponse failed;
    failed.request_id = 8;
    failed.ok = false;
    failed.failure = Status::Unsupported("no negation on this source");
    auto back = DecodeTranslateResponse(EncodeTranslateResponse(failed));
    ASSERT_TRUE(back.ok());
    EXPECT_FALSE(back->ok);
    EXPECT_EQ(back->failure.code(), StatusCode::kUnsupported);
    EXPECT_EQ(back->failure.message(), "no negation on this source");
  }
}

TEST(WireMessages, MultiSourceRequestRoundTrips) {
  TranslateRequest request;
  request.request_id = 43;
  request.source = "S0";
  request.query_text = "[a0 = 1] and [a1 = 2]";
  request.deadline_ms = 120;
  request.further_sources = {"S2", "S1", ""};
  auto back = DecodeTranslateRequest(EncodeTranslateRequest(request));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->request_id, 43u);
  EXPECT_EQ(back->source, "S0");
  EXPECT_EQ(back->query_text, request.query_text);
  EXPECT_EQ(back->deadline_ms, 120u);
  EXPECT_EQ(back->further_sources, request.further_sources);
}

TEST(WireMessages, ResponseMixingTranslationsAndStatusesRoundTrips) {
  TranslateResponse response;
  response.request_id = 9;
  response.failure = Status::DeadlineExceeded("first source too slow");
  response.further.resize(3);
  response.further[0].ok = true;
  response.further[0].value.mapped = Q("[a = 1] or [b = 2]");
  response.further[0].value.filter = Q("[c = 3]");
  response.further[0].value.coverage.RestoreEntry(0x1234, false);
  response.further[1].failure = Status::NotFound("unknown source: X");
  response.further[2].ok = true;
  response.further[2].value.mapped = Q("[d = 4]");
  response.further[2].value.filter = Query::True();
  auto back = DecodeTranslateResponse(EncodeTranslateResponse(response));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->request_id, 9u);
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->failure.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(back->failure.message(), "first source too slow");
  ASSERT_EQ(back->further.size(), 3u);
  for (size_t k : {size_t{0}, size_t{2}}) {
    ASSERT_TRUE(back->further[k].ok) << k;
    EXPECT_EQ(ToParseableText(back->further[k].value.mapped),
              ToParseableText(response.further[k].value.mapped));
    EXPECT_EQ(ToParseableText(back->further[k].value.filter),
              ToParseableText(response.further[k].value.filter));
    EXPECT_EQ(back->further[k].value.coverage.Entries(),
              response.further[k].value.coverage.Entries());
  }
  EXPECT_FALSE(back->further[1].ok);
  EXPECT_EQ(back->further[1].failure.code(), StatusCode::kNotFound);
  EXPECT_EQ(back->further[1].failure.message(), "unknown source: X");
}

TEST(WireMessages, SourceCountBeyondThePayloadFailsWithoutAllocating) {
  // A count the remaining bytes cannot hold fails before anything is
  // reserved for it. 0xFFFFFFFF slots would take far more memory than any
  // host has, so a decoder that reserved by the count would throw
  // bad_alloc here rather than return an error.
  const std::string huge_count = "\xff\xff\xff\xff";
  TranslateRequest request;
  request.request_id = 1;
  request.source = "S";
  request.query_text = "[a = 1]";
  std::string req = EncodeTranslateRequest(request);
  req.replace(req.size() - 4, 4, huge_count);  // the count ends the payload
  EXPECT_FALSE(DecodeTranslateRequest(req).ok());
  req += std::string(64, 'x');  // bytes for a few names, not for 2^32
  EXPECT_FALSE(DecodeTranslateRequest(req).ok());

  TranslateResponse response;
  response.request_id = 1;
  response.failure = Status::Unavailable("down");
  std::string resp = EncodeTranslateResponse(response);
  resp.replace(resp.size() - 4, 4, huge_count);
  EXPECT_FALSE(DecodeTranslateResponse(resp).ok());
  resp += std::string(64, 'x');
  EXPECT_FALSE(DecodeTranslateResponse(resp).ok());
}

TEST(WireMessages, CatalogResponseRoundTrips) {
  CatalogResponse catalog;
  catalog.sources.push_back({"S0", 0x1111});
  catalog.sources.push_back({"S1", 0x2222});
  auto back = DecodeCatalogResponse(EncodeCatalogResponse(catalog));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->sources.size(), 2u);
  EXPECT_EQ(back->sources[0].name, "S0");
  EXPECT_EQ(back->sources[0].rule_set_fp, 0x1111u);
  EXPECT_EQ(back->sources[1].name, "S1");
  EXPECT_EQ(back->sources[1].rule_set_fp, 0x2222u);
}

TEST(WireMessages, CorruptedPayloadsFailCleanly) {
  TranslateRequest request;
  request.request_id = 1;
  request.source = "S";
  request.query_text = "[a = 1]";
  const std::string req = EncodeTranslateRequest(request);

  TranslateResponse response;
  response.request_id = 1;
  response.ok = true;
  response.value.mapped = Q("[a = 1]");
  response.value.filter = Query::True();
  const std::string resp = EncodeTranslateResponse(response);

  // Multi-source payloads join the same loops as further inputs.
  TranslateRequest multi_request = request;
  multi_request.further_sources = {"T", "Uvw"};
  const std::string multi_req = EncodeTranslateRequest(multi_request);
  TranslateResponse multi_response = response;
  multi_response.further.resize(2);
  multi_response.further[0].failure = Status::Unavailable("worker busy");
  multi_response.further[1].ok = true;
  multi_response.further[1].value.mapped = Q("[b = 2] or [c = 3]");
  multi_response.further[1].value.filter = Query::True();
  multi_response.further[1].value.coverage.RestoreEntry(7, true);
  const std::string multi_resp = EncodeTranslateResponse(multi_response);

  std::mt19937 rng(97);
  std::uniform_int_distribution<int> byte(0, 255);
  for (const std::string& base : {req, resp, multi_req, multi_resp}) {
    // Every truncation either fails or (for the request codec, where a
    // trailing field could in principle be cut clean) decodes — never UB.
    for (size_t n = 0; n < base.size(); ++n) {
      DecodeTranslateRequest(std::string_view(base).substr(0, n));
      DecodeTranslateResponse(std::string_view(base).substr(0, n));
    }
    // Seeded random single-byte mutations.
    for (int i = 0; i < 500; ++i) {
      std::string corrupt = base;
      corrupt[rng() % corrupt.size()] = static_cast<char>(byte(rng));
      DecodeTranslateRequest(corrupt);
      DecodeTranslateResponse(corrupt);
      DecodeCatalogResponse(corrupt);
    }
  }
  // Truncating the full frames strictly loses data, so decode must fail.
  EXPECT_FALSE(
      DecodeTranslateRequest(std::string_view(req).substr(0, req.size() - 1))
          .ok());
  EXPECT_FALSE(
      DecodeTranslateResponse(std::string_view(resp).substr(0, resp.size() - 1))
          .ok());
  // Every field is length-prefixed or counted, so no strict prefix of a
  // multi-source payload decodes.
  for (size_t n = 0; n < multi_req.size(); ++n) {
    EXPECT_FALSE(
        DecodeTranslateRequest(std::string_view(multi_req).substr(0, n)).ok())
        << "request prefix " << n;
  }
  for (size_t n = 0; n < multi_resp.size(); ++n) {
    EXPECT_FALSE(
        DecodeTranslateResponse(std::string_view(multi_resp).substr(0, n)).ok())
        << "response prefix " << n;
  }
}

// ---------------------------------------------------------------------------
// QmapServer over real sockets

std::vector<std::pair<std::string, MappingSpec>> SyntheticFederation() {
  std::vector<std::pair<std::string, MappingSpec>> out;
  SyntheticOptions base;
  base.num_attrs = 8;
  const std::vector<std::vector<std::pair<int, int>>> pair_sets = {
      {}, {{0, 1}}, {{2, 3}, {4, 5}}, {{0, 2}, {1, 3}, {4, 6}}};
  for (size_t i = 0; i < pair_sets.size(); ++i) {
    SyntheticOptions options = base;
    options.dependent_pairs = pair_sets[i];
    Result<MappingSpec> spec = MakeSyntheticSpec(options);
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    out.emplace_back("S" + std::to_string(i), *spec);
  }
  return out;
}

std::shared_ptr<TranslationService> MakeWorkerService() {
  ServiceOptions options;
  options.num_threads = 1;
  auto service = std::make_shared<TranslationService>(options);
  for (auto& [name, spec] : SyntheticFederation()) {
    service->AddSource(name, spec);
  }
  return service;
}

TEST(QmapServer, TranslateMatchesInProcessByteForByte) {
  auto service = MakeWorkerService();
  QmapServerOptions options;
  options.poll_interval_ms = 5;
  QmapServer server(options);
  server.SetService(service);
  ASSERT_TRUE(server.Start().ok());

  const std::string source = service->SourceCatalog().front().name;
  const Query query = Q("[a0 = 1] and [a1 = 2]");

  TranslateRequest request;
  request.request_id = 5;
  request.source = source;
  request.query_text = ToParseableText(query);
  WireClient client;
  auto reply = client.Call("127.0.0.1:" + std::to_string(server.port()),
                           FrameType::kTranslateRequest,
                           EncodeTranslateRequest(request));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->first, FrameType::kTranslateResponse);
  auto response = DecodeTranslateResponse(reply->second);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->request_id, 5u);
  ASSERT_TRUE(response->ok) << response->failure.ToString();

  Result<Translation> local = service->TranslateSource(source, query);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(ToParseableText(response->value.mapped),
            ToParseableText(local->mapped));
  EXPECT_EQ(ToParseableText(response->value.filter),
            ToParseableText(local->filter));
  EXPECT_EQ(response->value.coverage.Entries(), local->coverage.Entries());

  QmapServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.responses_ok, 1u);
  server.Stop();
}

TEST(QmapServer, OneFrameAnswersEveryListedSourceInOrder) {
  // Two service threads: of a frame's misses, the server thread translates
  // one and the pool the rest.
  ServiceOptions service_options;
  service_options.num_threads = 2;
  auto service = std::make_shared<TranslationService>(service_options);
  for (auto& [name, spec] : SyntheticFederation()) {
    service->AddSource(name, spec);
  }
  QmapServerOptions options;
  options.poll_interval_ms = 5;
  QmapServer server(options);
  server.SetService(service);
  ASSERT_TRUE(server.Start().ok());
  const std::string endpoint = "127.0.0.1:" + std::to_string(server.port());

  const Query query = Q("([a0 = 1] or [a2 = 2]) and [a1 = 3]");
  TranslateRequest request;
  request.source = "S3";
  request.query_text = ToParseableText(query);
  request.further_sources = {"S0", "no-such-source", "S2", "S1"};
  const std::vector<std::string> listed = {"S3", "S0", "no-such-source", "S2",
                                           "S1"};
  WireClient client;
  for (uint64_t id : {1u, 2u}) {  // all misses, then all cache hits
    request.request_id = id;
    auto reply = client.Call(endpoint, FrameType::kTranslateRequest,
                             EncodeTranslateRequest(request));
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    auto response = DecodeTranslateResponse(reply->second);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->request_id, id);
    ASSERT_EQ(response->further.size(), listed.size() - 1);
    for (size_t k = 0; k < listed.size(); ++k) {
      const SourceReply& got = k == 0 ? *response : response->further[k - 1];
      Result<Translation> want = service->TranslateSource(listed[k], query);
      ASSERT_EQ(got.ok, want.ok()) << listed[k];
      if (!want.ok()) {
        EXPECT_EQ(got.failure.code(), StatusCode::kNotFound);
        continue;
      }
      EXPECT_EQ(ToParseableText(got.value.mapped),
                ToParseableText(want->mapped))
          << listed[k];
      EXPECT_EQ(ToParseableText(got.value.filter),
                ToParseableText(want->filter))
          << listed[k];
      EXPECT_EQ(got.value.coverage.Entries(), want->coverage.Entries());
    }
  }
  const QmapServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 2u);  // frames, not sources
  EXPECT_EQ(stats.responses_ok, 8u);
  EXPECT_EQ(stats.responses_error, 2u);
  server.Stop();
}

TEST(QmapServer, RejectedFrameAnswersEveryListedSourceUnavailable) {
  auto service = MakeWorkerService();
  QmapServerOptions options;
  options.quota_tokens_per_sec = 0.001;  // effectively no refill in-test
  options.quota_burst = 1;
  QmapServer server(options);
  server.SetService(service);
  ASSERT_TRUE(server.Start().ok());
  const std::string endpoint = "127.0.0.1:" + std::to_string(server.port());

  TranslateRequest request;
  request.source = "S0";
  request.query_text = "[a0 = 1]";
  request.further_sources = {"S1", "S2"};
  WireClient client;
  // The bucket holds one token: one frame of three sources spends it.
  request.request_id = 1;
  auto first = client.Call(endpoint, FrameType::kTranslateRequest,
                           EncodeTranslateRequest(request));
  ASSERT_TRUE(first.ok());
  auto first_response = DecodeTranslateResponse(first->second);
  ASSERT_TRUE(first_response.ok());
  EXPECT_TRUE(first_response->ok);
  ASSERT_EQ(first_response->further.size(), 2u);
  EXPECT_TRUE(first_response->further[0].ok);
  EXPECT_TRUE(first_response->further[1].ok);

  request.request_id = 2;
  auto second = client.Call(endpoint, FrameType::kTranslateRequest,
                            EncodeTranslateRequest(request));
  ASSERT_TRUE(second.ok());
  auto second_response = DecodeTranslateResponse(second->second);
  ASSERT_TRUE(second_response.ok());
  EXPECT_EQ(second_response->request_id, 2u);
  EXPECT_FALSE(second_response->ok);
  EXPECT_EQ(second_response->failure.code(), StatusCode::kUnavailable);
  ASSERT_EQ(second_response->further.size(), 2u);
  for (const SourceReply& reply : second_response->further) {
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.failure.code(), StatusCode::kUnavailable);
  }
  const QmapServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected_quota, 1u);  // one frame, one rejection
  EXPECT_EQ(stats.responses_ok, 3u);
  EXPECT_EQ(stats.responses_error, 3u);
  server.Stop();
}

TEST(QmapServer, CatalogListsSourcesWithFingerprints) {
  auto service = MakeWorkerService();
  QmapServer server;
  server.SetService(service);
  ASSERT_TRUE(server.Start().ok());

  WireClient client;
  auto reply = client.Call("127.0.0.1:" + std::to_string(server.port()),
                           FrameType::kCatalogRequest, "");
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->first, FrameType::kCatalogResponse);
  auto catalog = DecodeCatalogResponse(reply->second);
  ASSERT_TRUE(catalog.ok());

  auto want = service->SourceCatalog();
  ASSERT_EQ(catalog->sources.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(catalog->sources[i].name, want[i].name);
    EXPECT_EQ(catalog->sources[i].rule_set_fp, want[i].rule_set_fp);
    EXPECT_NE(catalog->sources[i].rule_set_fp, 0u);
  }
  server.Stop();
}

TEST(QmapServer, UnknownSourceAndBadQueryComeBackAsStatuses) {
  auto service = MakeWorkerService();
  QmapServer server;
  server.SetService(service);
  ASSERT_TRUE(server.Start().ok());
  const std::string endpoint = "127.0.0.1:" + std::to_string(server.port());
  WireClient client;

  TranslateRequest request;
  request.request_id = 1;
  request.source = "no-such-source";
  request.query_text = "[a0 = 1]";
  auto reply = client.Call(endpoint, FrameType::kTranslateRequest,
                           EncodeTranslateRequest(request));
  ASSERT_TRUE(reply.ok());
  auto response = DecodeTranslateResponse(reply->second);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->failure.code(), StatusCode::kNotFound);

  request.source = service->SourceCatalog().front().name;
  request.query_text = "[[[ not a query";
  reply = client.Call(endpoint, FrameType::kTranslateRequest,
                      EncodeTranslateRequest(request));
  ASSERT_TRUE(reply.ok());
  response = DecodeTranslateResponse(reply->second);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok);
  server.Stop();
}

TEST(QmapServer, MalformedFramesCloseTheConnectionNotTheServer) {
  auto service = MakeWorkerService();
  QmapServerOptions options;
  options.poll_interval_ms = 5;
  QmapServer server(options);
  server.SetService(service);
  ASSERT_TRUE(server.Start().ok());

  // A lost HTTP client and seeded garbage: each connection is dropped,
  // the server keeps serving.
  std::mt19937 rng(424242);
  for (int i = 0; i < 8; ++i) {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server.port()));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    std::string garbage = i == 0 ? "GET /statusz HTTP/1.1\r\n\r\n"
                                 : std::string(64, '\0');
    for (char& c : garbage) {
      if (i != 0) c = static_cast<char>(rng() % 256);
    }
    send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL);
    // The server aborts the connection once the frame is unsalvageable.
    char buf[64];
    while (read(fd, buf, sizeof(buf)) > 0) {
    }
    close(fd);
  }

  // Still alive: a well-formed call succeeds.
  WireClient client;
  auto reply = client.Call("127.0.0.1:" + std::to_string(server.port()),
                           FrameType::kCatalogRequest, "");
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_GT(server.stats().malformed_frames, 0u);
  server.Stop();
}

TEST(QmapServer, QuotaRejectsWithUnavailableNotDisconnect) {
  auto service = MakeWorkerService();
  QmapServerOptions options;
  options.quota_tokens_per_sec = 0.001;  // effectively no refill in-test
  options.quota_burst = 1;
  QmapServer server(options);
  server.SetService(service);
  ASSERT_TRUE(server.Start().ok());
  const std::string endpoint = "127.0.0.1:" + std::to_string(server.port());

  TranslateRequest request;
  request.source = service->SourceCatalog().front().name;
  request.query_text = "[a0 = 1]";
  WireClient client;
  // Two calls over one pooled connection: the bucket holds exactly one.
  request.request_id = 1;
  auto first = client.Call(endpoint, FrameType::kTranslateRequest,
                           EncodeTranslateRequest(request));
  ASSERT_TRUE(first.ok());
  auto first_response = DecodeTranslateResponse(first->second);
  ASSERT_TRUE(first_response.ok());
  EXPECT_TRUE(first_response->ok);

  request.request_id = 2;
  auto second = client.Call(endpoint, FrameType::kTranslateRequest,
                            EncodeTranslateRequest(request));
  ASSERT_TRUE(second.ok());
  auto second_response = DecodeTranslateResponse(second->second);
  ASSERT_TRUE(second_response.ok());
  EXPECT_FALSE(second_response->ok);
  EXPECT_EQ(second_response->failure.code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.stats().rejected_quota, 1u);
  EXPECT_EQ(client.stats().reuses, 1u);  // same connection both times
  server.Stop();
}

TEST(QmapServer, HotReloadSwapsTheServiceBetweenRequests) {
  auto service = MakeWorkerService();
  QmapServer server;
  server.SetService(service);
  ASSERT_TRUE(server.Start().ok());
  const std::string endpoint = "127.0.0.1:" + std::to_string(server.port());
  WireClient client;

  auto before = client.Call(endpoint, FrameType::kCatalogRequest, "");
  ASSERT_TRUE(before.ok());
  auto before_catalog = DecodeCatalogResponse(before->second);
  ASSERT_TRUE(before_catalog.ok());

  // Reload with a service exposing only the first source.
  ServiceOptions small_options;
  small_options.num_threads = 1;
  auto small = std::make_shared<TranslationService>(small_options);
  auto federation = SyntheticFederation();
  small->AddSource(federation.front().first, federation.front().second);
  server.SetService(small);

  auto after = client.Call(endpoint, FrameType::kCatalogRequest, "");
  ASSERT_TRUE(after.ok());
  auto after_catalog = DecodeCatalogResponse(after->second);
  ASSERT_TRUE(after_catalog.ok());
  EXPECT_GT(before_catalog->sources.size(), after_catalog->sources.size());
  EXPECT_EQ(after_catalog->sources.size(), 1u);
  EXPECT_EQ(server.stats().reloads, 1u);
  server.Stop();
}

TEST(WireClient, StalePooledConnectionIsRetriedOnce) {
  auto service = MakeWorkerService();
  int port = 0;
  WireClient client;
  {
    QmapServer first;
    first.SetService(service);
    ASSERT_TRUE(first.Start().ok());
    port = first.port();
    auto reply = client.Call("127.0.0.1:" + std::to_string(port),
                             FrameType::kCatalogRequest, "");
    ASSERT_TRUE(reply.ok());
    first.Stop();  // the pooled connection is now stale
  }

  // A new worker takes over the same port (restart); the client's first
  // attempt rides the dead pooled fd, fails before any response byte, and
  // is retried once on a fresh connection.
  QmapServerOptions options;
  options.port = port;
  QmapServer second(options);
  second.SetService(service);
  ASSERT_TRUE(second.Start().ok()) << "port " << port << " not reusable";
  auto reply = client.Call("127.0.0.1:" + std::to_string(port),
                           FrameType::kCatalogRequest, "");
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(client.stats().retries, 1u);
  second.Stop();
}

TEST(WireClient, ConcurrentCallersShareABoundedSetOfConnections) {
  // Eight threads calling at once through a two-connection client: the
  // calls queue for the two connections instead of dialing one each.
  auto service = MakeWorkerService();
  QmapServerOptions server_options;
  server_options.poll_interval_ms = 5;
  QmapServer server(server_options);
  server.SetService(service);
  ASSERT_TRUE(server.Start().ok());
  const std::string endpoint = "127.0.0.1:" + std::to_string(server.port());
  WireClientOptions options;
  options.max_idle_per_endpoint = 2;
  WireClient client(options);
  constexpr int kThreads = 8;
  constexpr int kCalls = 20;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCalls; ++i) {
        if (!client.Call(endpoint, FrameType::kCatalogRequest, "").ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  const WireClientStats stats = client.stats();
  EXPECT_EQ(stats.calls, static_cast<uint64_t>(kThreads * kCalls));
  EXPECT_LE(stats.connects, 2u);
  EXPECT_EQ(stats.reuses, stats.calls - stats.connects);
  EXPECT_LE(server.stats().net.accepted, 2u);
  server.Stop();
}

TEST(WireClient, AReleaseWakesACallerOfTheSameEndpoint) {
  // Two workers behind one client with one connection each. A slow call
  // holds the first worker's connection and a fast one the second's; then
  // callers queue behind them, the fast worker's two between two of the
  // slow worker's, so the first and the last waiter are both slow ones.
  // Each fast call that ends must wake a caller of its own endpoint. Waking
  // a slow worker's caller instead leaves the fast worker's callers asleep,
  // their connection idle, until the slow call ends — and a caller still
  // asleep when the calls run out sleeps until its deadline.
  const auto make_service = [](FaultInjector* faults, uint64_t stall_us) {
    ServiceOptions options;
    options.num_threads = 1;
    options.enable_cache = false;  // every call reaches its stall
    options.fault_injector = faults;
    auto service = std::make_shared<TranslationService>(options);
    for (auto& [name, spec] : SyntheticFederation()) {
      service->AddSource(name, spec);
      faults->SetStallRate(name, 1.0, stall_us);
    }
    return service;
  };
  FaultInjector slow_faults;
  FaultInjector fast_faults;
  QmapServerOptions server_options;
  server_options.poll_interval_ms = 5;
  QmapServer slow(server_options);
  QmapServer fast(server_options);
  slow.SetService(make_service(&slow_faults, 150'000));
  fast.SetService(make_service(&fast_faults, 20'000));
  ASSERT_TRUE(slow.Start().ok());
  ASSERT_TRUE(fast.Start().ok());
  const std::string slow_endpoint = "127.0.0.1:" + std::to_string(slow.port());
  const std::string fast_endpoint = "127.0.0.1:" + std::to_string(fast.port());

  TranslateRequest request;
  request.source = SyntheticFederation().front().first;
  request.query_text = "[a0 = 1]";
  const std::string payload = EncodeTranslateRequest(request);
  WireClientOptions options;
  options.max_idle_per_endpoint = 1;
  WireClient client(options);
  constexpr uint32_t kDeadlineMs = 3000;
  // Started in this order, a few milliseconds apart: the two holders, then
  // the four queued callers.
  constexpr int kCallers = 6;
  constexpr int kSlowHolder = 0;
  constexpr int kFastWaiters[] = {3, 4};
  const std::string* endpoints[kCallers] = {&slow_endpoint, &fast_endpoint,
                                            &slow_endpoint, &fast_endpoint,
                                            &fast_endpoint, &slow_endpoint};
  bool ok[kCallers] = {};
  std::chrono::steady_clock::time_point started[kCallers];
  std::chrono::steady_clock::time_point finished[kCallers];
  std::vector<std::thread> threads;
  for (int t = 0; t < kCallers; ++t) {
    started[t] = std::chrono::steady_clock::now();
    threads.emplace_back([&, t] {
      auto reply = client.Call(*endpoints[t], FrameType::kTranslateRequest,
                               payload, kDeadlineMs);
      ok[t] = reply.ok() && reply->first == FrameType::kTranslateResponse;
      finished[t] = std::chrono::steady_clock::now();
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kCallers; ++t) {
    EXPECT_TRUE(ok[t]) << "caller " << t;
    EXPECT_LT(finished[t] - started[t],
              std::chrono::milliseconds(kDeadlineMs / 2))
        << "caller " << t;
  }
  // The fast worker's queued callers wait for the fast calls only.
  const auto ms_in = [&](std::chrono::steady_clock::time_point at) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               at - started[0])
        .count();
  };
  for (int t : kFastWaiters) {
    EXPECT_LT(ms_in(finished[t]), ms_in(finished[kSlowHolder]))
        << "caller " << t;
  }
  EXPECT_EQ(client.stats().connects, 2u);
  slow.Stop();
  fast.Stop();
}

// ---------------------------------------------------------------------------
// Where a translate frame runs: admission, backpressure, the inline path

// A source whose translations wait until Open(), to hold frames on the
// worker pool.
class GateTransport : public SourceTransport {
 public:
  explicit GateTransport(const MappingSpec& spec) : inner_(Translator(spec)) {}

  Result<Translation> Translate(const Query& full, Trace* trace,
                                uint64_t parent_span, MatchMemo* memo,
                                const CancelToken* cancel) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      changed_.notify_all();
      changed_.wait(lock, [&] { return open_; });
    }
    return inner_.Translate(full, trace, parent_span, memo, cancel);
  }

  void WaitEntered(int calls) {
    std::unique_lock<std::mutex> lock(mu_);
    changed_.wait(lock, [&] { return entered_ >= calls; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    changed_.notify_all();
  }

 private:
  InProcessTransport inner_;
  std::mutex mu_;
  std::condition_variable changed_;
  int entered_ = 0;
  bool open_ = false;
};

std::string EndpointOf(const QmapServer& server) {
  return "127.0.0.1:" + std::to_string(server.port());
}

TranslateRequest Request(uint64_t id, std::string query_text,
                         std::vector<std::string> sources) {
  TranslateRequest request;
  request.request_id = id;
  request.query_text = std::move(query_text);
  request.source = sources.front();
  request.further_sources.assign(sources.begin() + 1, sources.end());
  return request;
}

// One translate call; the raw response payload.
std::string CallTranslate(WireClient& client, const QmapServer& server,
                          const TranslateRequest& request) {
  auto reply = client.Call(EndpointOf(server), FrameType::kTranslateRequest,
                           EncodeTranslateRequest(request));
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  if (!reply.ok()) return "";
  EXPECT_EQ(reply->first, FrameType::kTranslateResponse);
  return reply->second;
}

TranslateResponse Decoded(const std::string& payload) {
  Result<TranslateResponse> response = DecodeTranslateResponse(payload);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return response.ok() ? *std::move(response) : TranslateResponse{};
}

// Each reply of `response`, first source first.
std::vector<const SourceReply*> Replies(const TranslateResponse& response) {
  std::vector<const SourceReply*> out = {&response};
  for (const SourceReply& reply : response.further) out.push_back(&reply);
  return out;
}

int ConnectLoopback(int port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

// Reads `count` response frames off `fd`, in arrival order.
std::vector<TranslateResponse> ReadResponses(int fd, size_t count) {
  std::vector<TranslateResponse> out;
  std::string buf;
  char chunk[4096];
  while (out.size() < count) {
    FrameType type;
    std::string_view payload;
    size_t frame_len = 0;
    const FrameDecodeResult decoded =
        DecodeFrame(buf, &type, &payload, &frame_len);
    if (decoded == FrameDecodeResult::kFrame) {
      EXPECT_EQ(type, FrameType::kTranslateResponse);
      out.push_back(Decoded(std::string(payload)));
      buf.erase(0, frame_len);
      continue;
    }
    EXPECT_EQ(decoded, FrameDecodeResult::kNeedMore);
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      ADD_FAILURE() << "connection ended after " << out.size() << " frames";
      break;
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
  return out;
}

TEST(QmapServer, AdmissionShedsAFrameBeforeParsingIt) {
  const auto federation = SyntheticFederation();
  auto gate = std::make_shared<GateTransport>(federation.front().second);
  ServiceOptions service_options;
  service_options.num_threads = 1;
  auto service = std::make_shared<TranslationService>(service_options);
  service->AddRemoteSource("G", 1, gate);
  QmapServerOptions options;
  options.poll_interval_ms = 5;
  options.max_in_flight = 1;
  QmapServer server(options);
  server.SetService(service);
  ASSERT_TRUE(server.Start().ok());
  WireClient client;

  // The first frame misses and holds the one admission slot on the pool.
  const TranslateRequest held = Request(1, "[a0 = 1]", {"G"});
  std::string held_payload;
  std::thread holder([&] { held_payload = CallTranslate(client, server, held); });
  gate->WaitEntered(1);

  // A second frame is shed with Unavailable: its malformed text never
  // reaches the parser, which would have answered ParseError.
  const TranslateResponse shed =
      Decoded(CallTranslate(client, server, Request(2, "[[[ not a query", {"G"})));
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.failure.code(), StatusCode::kUnavailable)
      << shed.failure.ToString();
  EXPECT_EQ(server.stats().rejected_overload, 1u);

  gate->Open();
  holder.join();
  EXPECT_TRUE(Decoded(held_payload).ok);
  EXPECT_EQ(server.stats().answered_inline, 0u);

  // The slot is free again, and the held frame's answer is cached: the same
  // frame is answered on the loop thread.
  const TranslateResponse again = Decoded(CallTranslate(client, server, held));
  EXPECT_TRUE(again.ok) << again.failure.ToString();
  EXPECT_EQ(server.stats().answered_inline, 1u);
  EXPECT_EQ(server.stats().rejected_overload, 1u);
  server.Stop();
}

TEST(QmapServer, BackpressureAnswersPipelinedFramesInRequestOrder) {
  const auto federation = SyntheticFederation();
  auto gate = std::make_shared<GateTransport>(federation.front().second);
  ServiceOptions service_options;
  service_options.num_threads = 1;
  auto service = std::make_shared<TranslationService>(service_options);
  service->AddRemoteSource("G", 1, gate);
  QmapServerOptions options;
  options.poll_interval_ms = 5;
  options.max_pending_per_conn = 1;
  QmapServer server(options);
  server.SetService(service);
  ASSERT_TRUE(server.Start().ok());

  // Three frames, each a miss, pipelined on one connection.
  const int fd = ConnectLoopback(server.port());
  std::string pipeline;
  for (uint64_t id = 1; id <= 3; ++id) {
    pipeline += EncodeFrame(
        FrameType::kTranslateRequest,
        EncodeTranslateRequest(
            Request(id, "[a0 = " + std::to_string(id) + "]", {"G"})));
  }
  ASSERT_EQ(send(fd, pipeline.data(), pipeline.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(pipeline.size()));

  // The first frame sits on the pool, so the connection's reads pause and
  // the other two stay undecoded.
  gate->WaitEntered(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(server.stats().requests, 1u);

  gate->Open();
  const std::vector<TranslateResponse> responses = ReadResponses(fd, 3);
  ASSERT_EQ(responses.size(), 3u);
  for (uint64_t id = 1; id <= 3; ++id) {
    EXPECT_EQ(responses[id - 1].request_id, id);
    EXPECT_TRUE(responses[id - 1].ok) << responses[id - 1].failure.ToString();
  }
  EXPECT_EQ(server.stats().requests, 3u);
  close(fd);
  server.Stop();
}

TEST(QmapServer, InlineAndPooledAnswersAreByteIdentical) {
  auto service = MakeWorkerService();
  QmapServerOptions options;
  options.poll_interval_ms = 5;
  QmapServer server(options);
  server.SetService(service);
  ASSERT_TRUE(server.Start().ok());
  WireClient client;

  const TranslateRequest request =
      Request(9, "([a0 = 1] or [a2 = 2]) and [a1 = 3]",
              {"S3", "S0", "no-such-source", "S2", "S1", "S0"});
  const std::string pooled = CallTranslate(client, server, request);
  EXPECT_EQ(server.stats().answered_inline, 0u);
  const std::string inline_answer = CallTranslate(client, server, request);
  EXPECT_EQ(server.stats().answered_inline, 1u);
  EXPECT_EQ(inline_answer, pooled);

  const TranslateResponse response = Decoded(inline_answer);
  const std::vector<const SourceReply*> replies = Replies(response);
  ASSERT_EQ(replies.size(), 6u);
  for (size_t k = 0; k < replies.size(); ++k) {
    EXPECT_EQ(replies[k]->ok, k != 2) << k;
  }
  EXPECT_EQ(replies[2]->failure.code(), StatusCode::kNotFound);
  const QmapServerStats stats = server.stats();
  EXPECT_EQ(stats.responses_ok, 10u);
  EXPECT_EQ(stats.responses_error, 2u);
  server.Stop();
}

TEST(QmapServer, AFrameMixingHitsAndMissesProbesEachSourceOnce) {
  auto service = MakeWorkerService();
  QmapServerOptions options;
  options.poll_interval_ms = 5;
  QmapServer server(options);
  server.SetService(service);
  ASSERT_TRUE(server.Start().ok());
  WireClient client;
  const std::string text = "[a0 = 1] and ([a1 = 2] or [a3 = 0])";

  CallTranslate(client, server, Request(1, text, {"S0", "S1"}));  // warm two
  const uint64_t inline_before = server.stats().answered_inline;
  const TranslationCacheStats before = service->stats().cache;
  const TranslateResponse mixed = Decoded(
      CallTranslate(client, server, Request(2, text, {"S2", "S0", "S3", "S1"})));
  const TranslationCacheStats after = service->stats().cache;
  for (const SourceReply* reply : Replies(mixed)) EXPECT_TRUE(reply->ok);
  EXPECT_EQ(after.hits - before.hits, 2u);
  EXPECT_EQ(after.misses - before.misses, 2u);
  EXPECT_EQ(server.stats().answered_inline, inline_before);
  server.Stop();
}

TEST(QmapServer, AParseFailureAnswersWithTheParserStatus) {
  auto service = MakeWorkerService();
  QmapServer server;
  server.SetService(service);
  ASSERT_TRUE(server.Start().ok());
  WireClient client;
  const std::string text = "[[[ not a query";
  const Status want = ParseQuery(text).status();
  ASSERT_EQ(want.code(), StatusCode::kParseError);

  const TranslateResponse response =
      Decoded(CallTranslate(client, server, Request(3, text, {"S0", "S1"})));
  const std::vector<const SourceReply*> replies = Replies(response);
  ASSERT_EQ(replies.size(), 2u);
  for (const SourceReply* reply : replies) {
    EXPECT_FALSE(reply->ok);
    EXPECT_EQ(reply->failure.code(), want.code());
    EXPECT_EQ(reply->failure.message(), want.message());
  }
  EXPECT_EQ(server.stats().answered_inline, 1u);
  EXPECT_EQ(server.stats().responses_error, 2u);
  server.Stop();
}

TEST(QmapServer, ATextPastTheParseMemoBoundIsAnsweredByThePool) {
  auto service = MakeWorkerService();
  QmapServer server;
  server.SetService(service);
  ASSERT_TRUE(server.Start().ok());
  WireClient client;
  std::string text = "[a1 = 2] and ([a0 = 0]";
  for (int v = 1; text.size() <= kParseMemoMaxTextBytes; ++v) {
    text += " or [a0 = " + std::to_string(v) + "]";
  }
  text += ")";
  const TranslateRequest request = Request(4, text, {"S0", "S2"});

  CallTranslate(client, server, request);
  const uint64_t hits_before = service->stats().cache.hits;
  const TranslateResponse response =
      Decoded(CallTranslate(client, server, request));
  // Every source hit the cache, yet the pool answered: the loop thread does
  // not parse a text that long.
  EXPECT_EQ(service->stats().cache.hits - hits_before, 2u);
  EXPECT_EQ(server.stats().answered_inline, 0u);

  const Query query = Q(text);
  const std::vector<const SourceReply*> replies = Replies(response);
  ASSERT_EQ(replies.size(), 2u);
  for (size_t k = 0; k < replies.size(); ++k) {
    Result<Translation> want =
        service->TranslateSource(k == 0 ? "S0" : "S2", query);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(replies[k]->ok) << replies[k]->failure.ToString();
    EXPECT_EQ(ToParseableText(replies[k]->value.mapped),
              ToParseableText(want->mapped));
    EXPECT_EQ(ToParseableText(replies[k]->value.filter),
              ToParseableText(want->filter));
  }
  server.Stop();
}

TEST(QmapServer, SetServiceSwapsTheServiceBetweenInlineFrames) {
  auto first = MakeWorkerService();
  QmapServerOptions options;
  options.poll_interval_ms = 5;
  QmapServer server(options);
  server.SetService(first);
  ASSERT_TRUE(server.Start().ok());
  WireClient client;
  const TranslateRequest request = Request(5, "[a0 = 1]", {"S0", "S1"});

  CallTranslate(client, server, request);
  CallTranslate(client, server, request);
  EXPECT_EQ(server.stats().answered_inline, 1u);
  EXPECT_EQ(first->stats().cache.hits, 2u);

  // The new service's cache is empty: its first frame goes to the pool, its
  // second is answered inline from its own cache.
  auto second = MakeWorkerService();
  server.SetService(second);
  const std::string pooled = CallTranslate(client, server, request);
  EXPECT_EQ(server.stats().answered_inline, 1u);
  EXPECT_EQ(second->stats().cache.misses, 2u);
  const std::string inline_answer = CallTranslate(client, server, request);
  EXPECT_EQ(server.stats().answered_inline, 2u);
  EXPECT_EQ(second->stats().cache.hits, 2u);
  EXPECT_EQ(first->stats().cache.hits, 2u);
  EXPECT_EQ(inline_answer, pooled);
  EXPECT_EQ(server.stats().reloads, 1u);
  server.Stop();
}

TEST(QmapServer, ConcurrentHitAndMissFramesWhileTheServiceSwaps) {
  // Four clients send frames that hit (a small repeated set) and frames
  // that miss (fresh queries), over a worker whose service is swapped
  // underneath them. Every answer must be the reference translation.
  // The specs' rule plans are built before any thread starts, and every
  // service copies them built: racing first builds of a plan trip a known
  // ThreadSanitizer report on gcc 12's std::atomic<std::shared_ptr> (see
  // LazyShared), which is not what this test is about.
  auto federation = SyntheticFederation();
  for (auto& [name, spec] : federation) spec.compiled_plan();
  const auto make_service = [&federation] {
    ServiceOptions service_options;
    service_options.num_threads = 2;
    auto service = std::make_shared<TranslationService>(service_options);
    for (const auto& [name, spec] : federation) service->AddSource(name, spec);
    return service;
  };
  auto reference = make_service();
  QmapServerOptions options;
  options.poll_interval_ms = 5;
  QmapServer server(options);
  server.SetService(make_service());
  ASSERT_TRUE(server.Start().ok());
  WireClient client;
  constexpr int kThreads = 4;
  constexpr int kFrames = 60;
  const std::vector<std::vector<std::string>> listings = {
      {"S0", "S1"}, {"S2", "S3", "S0"}, {"S1", "S2", "S3", "S0"}};
  std::atomic<int> wrong{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kFrames; ++i) {
        const std::string text =
            i % 2 == 0 ? "[a0 = " + std::to_string(i % 3) + "] and [a1 = 2]"
                       : "[a2 = " + std::to_string(1000 * t + i) +
                             "] or [a3 = 1]";
        const std::vector<std::string>& listed = listings[(t + i) % 3];
        const TranslateResponse response = Decoded(CallTranslate(
            client, server,
            Request(static_cast<uint64_t>(i), text, listed)));
        const std::vector<const SourceReply*> replies = Replies(response);
        if (replies.size() != listed.size()) {
          wrong.fetch_add(1);
          continue;
        }
        const Query query = Q(text);
        for (size_t k = 0; k < listed.size(); ++k) {
          Result<Translation> want = reference->TranslateSource(listed[k], query);
          if (!want.ok() || !replies[k]->ok ||
              ToParseableText(replies[k]->value.mapped) !=
                  ToParseableText(want->mapped) ||
              ToParseableText(replies[k]->value.filter) !=
                  ToParseableText(want->filter)) {
            wrong.fetch_add(1);
          }
        }
      }
    });
  }
  std::thread swapper([&] {
    while (!done.load()) {
      server.SetService(make_service());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (std::thread& thread : threads) thread.join();
  done.store(true);
  swapper.join();
  EXPECT_EQ(wrong.load(), 0);
  const QmapServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kThreads * kFrames));
  EXPECT_GT(stats.reloads, 0u);
  server.Stop();
}

TEST(WireClient, ASendToAPeerThatNeverReadsTimesOutWithinTheDeadline) {
  // A listener that never accepts: the kernel completes the handshake and
  // takes bytes into the connection's small receive buffer, then the
  // window closes and the client's send buffer fills.
  const int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  const int small = 4096;
  setsockopt(listener, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = 0;
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::string endpoint = "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));

  // Larger than the client's send buffer can grow to plus the peer's window.
  const std::string payload(8u << 20, 'x');
  constexpr uint32_t kDeadlineMs = 300;
  WireClient client;
  const auto start = std::chrono::steady_clock::now();
  auto reply =
      client.Call(endpoint, FrameType::kCatalogRequest, payload, kDeadlineMs);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded)
      << reply.status().ToString();
  EXPECT_EQ(reply.status().message(), "wire client: send timed out");
  EXPECT_LT(elapsed, std::chrono::milliseconds(kDeadlineMs + 1000));
  close(listener);
}

}  // namespace
}  // namespace qmap
