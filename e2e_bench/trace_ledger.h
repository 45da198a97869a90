// Folds per-request traces into per-layer time totals.
//
// The benchmark records its own spans around ParseQuery ("e2e.parse"),
// TranslationService::Translate ("e2e.translate", both under
// "e2e.request") and its direct layer calls ("e2e.worker", "e2e.codec",
// "e2e.fold"); the spans the program records itself nest underneath.
// Nesting is the recorded parent, refined two ways: a span that lies
// inside another span of the same thread is that span's child (this puts
// "service.translate", a root span, under "e2e.translate", and
// "rpc.translate" under its sibling "retry.attempt"), and pool-side spans
// of a fan-out ("pool.wait", "source.translate" on worker threads) are
// children of the caller's "fanout.wait". A span's self time is its
// duration minus the union of its children's intervals: fan-out children
// overlap, so summing their durations would over-subtract.
#ifndef QMAP_E2E_BENCH_TRACE_LEDGER_H_
#define QMAP_E2E_BENCH_TRACE_LEDGER_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "qmap/obs/trace.h"

namespace e2e {

/// One time total per layer. Self times unless marked inclusive.
enum Layer : int {
  kExprParse,            // e2e.parse
  kServiceTranslate,     // e2e.translate, inclusive
  kServiceFanoutWait,    // fanout.wait
  kServicePoolWait,      // pool.wait
  kServiceCacheLookup,   // cache.lookup
  kServiceCacheInsert,   // cache.insert
  kServiceJoin,          // join
  kServiceMergeFilter,   // filter under service.translate
  kCoreTranslate,        // translate, inclusive
  kCoreTdqm,             // tdqm and node.*
  kCoreScm,              // scm, and the match step SCM runs before it
  kCorePsafe,            // psafe
  kCoreEdnf,             // ednf.match, ednf.safety
  kCoreDisjunctivize,    // disjunctivize
  kCoreResidueFilter,    // filter under translate
  kStoreLookup,          // store.lookup
  kWireRpc,              // rpc.translate
  kWireWorker,           // e2e.worker
  kWireCodec,            // e2e.codec
  kObsFold,              // e2e.fold
  kUnattributed,         // self time of every span no layer above claims
  kNumLayers
};

struct Ledger {
  std::array<int64_t, kNumLayers> ns{};
  uint64_t requests = 0;
  uint64_t pool_tasks = 0;      // pool.wait spans
  uint64_t rpcs = 0;            // rpc.translate spans
  uint64_t worker_calls = 0;    // e2e.worker spans
  uint64_t codec_calls = 0;     // e2e.codec spans
  uint64_t program_spans = 0;   // spans the program recorded (not e2e.*)
  /// kUnattributed broken down by span name, for the results file.
  std::map<std::string, int64_t> unattributed_by_span;

  /// Adds one request's finished trace.
  void Add(const std::vector<qmap::SpanRecord>& spans);
  void Merge(const Ledger& other);
};

}  // namespace e2e

#endif  // QMAP_E2E_BENCH_TRACE_LEDGER_H_
