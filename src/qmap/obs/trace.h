#ifndef QMAP_OBS_TRACE_H_
#define QMAP_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "qmap/common/status.h"
#include "qmap/core/stats.h"

namespace qmap {

class MetricsRegistry;

/// One completed (or still-open) span of a per-query trace.
struct SpanRecord {
  uint64_t id = 0;      // 1-based within the trace; 0 means "no span"
  uint64_t parent = 0;  // parent span id; 0 = root level
  std::string name;     // taxonomy name, e.g. "scm" (see docs/OBSERVABILITY.md)
  int thread = 0;       // per-trace thread index (0 = the trace's first thread)
  int64_t start_ns = 0;  // offset from the trace epoch
  int64_t dur_ns = -1;   // -1 while the span is still open
  /// Free-form annotations. Keys may repeat (e.g. one "match" entry per
  /// applied rule); order is preserved.
  std::vector<std::pair<std::string, std::string>> attrs;
  /// Span-local TranslationStats delta, when the instrumented site has one.
  TranslationStats stats;
  bool has_stats = false;
};

/// A trace parsed back from Trace::ToJson() (or assembled by hand). Plain
/// data, so it can travel through Result<>; serializes identically to the
/// Trace it came from — the round-trip contract tested in tests/obs_test.cc.
struct ParsedTrace {
  std::string trace_id;
  std::string label;
  bool capture_detail = false;
  std::vector<SpanRecord> spans;

  std::string ToJson() const;
};

/// A per-query trace: a process-unique id plus an append-only list of nested
/// spans. Span creation order is preserved (records are appended when a span
/// *starts*), so a single-threaded traversal reads back in pre-order — the
/// property ExplainTdqm's narrative renderer relies on.
///
/// Thread-safe: spans may start/finish on any thread (the service's pool
/// fan-out); each thread gets a stable per-trace index, visible in the
/// Chrome export as separate tracks. All methods take a short mutex; the
/// intended no-overhead path is a null Trace* at the instrumentation sites,
/// which skips the clock reads entirely.
///
/// Exports:
///   ToJson()            — round-trippable via ParseTraceJson().
///   ToChromeTraceJson() — Chrome trace_event format ("X" complete events);
///                         load via chrome://tracing or https://ui.perfetto.dev.
class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  /// `capture_detail` additionally records the expensive string annotations
  /// (query texts, per-rule match lines) that ExplainTdqm renders from;
  /// leave it off for latency traces.
  explicit Trace(std::string label = "", bool capture_detail = false);

  const std::string& label() const { return label_; }
  /// Process-unique trace id, e.g. "qt17".
  std::string trace_id() const;
  /// The numeric part of trace_id(). Histogram exemplars store this serial
  /// (an atomic 64-bit slot per bucket) instead of the id string.
  uint64_t serial() const { return serial_; }
  bool capture_detail() const { return capture_detail_; }

  /// Nanoseconds elapsed since the trace was created.
  int64_t NowNs() const;

  /// Records a span measured by the caller (e.g. pool queue-wait time whose
  /// start predates the worker picking the task up). `start_ns` / `end_ns`
  /// are NowNs() readings. Returns the new span's id.
  uint64_t AddCompleteSpan(std::string_view name, uint64_t parent,
                           int64_t start_ns, int64_t end_ns);

  /// Snapshot of all spans recorded so far.
  std::vector<SpanRecord> spans() const;
  size_t num_spans() const;

  /// Snapshot of the whole trace as plain data — identical to parsing
  /// ToJson() back, without the serialization round trip. This is what the
  /// trace-retention ring stores.
  ParsedTrace ToParsed() const;

  std::string ToJson() const;
  std::string ToChromeTraceJson() const;

 private:
  friend class Span;

  uint64_t StartSpan(std::string_view name, uint64_t parent);
  void EndSpan(uint64_t id);
  void AddAttr(uint64_t id, std::string_view key, std::string value);
  void SetStats(uint64_t id, const TranslationStats& stats);
  int ThreadIndexLocked();

  const std::string label_;
  const bool capture_detail_;
  const uint64_t serial_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;              // guarded by mu_
  std::map<std::thread::id, int> thread_idx_;  // guarded by mu_
};

/// RAII span handle. A default-constructed handle, or one built with a null
/// Trace*, is disabled: every operation (including construction and
/// destruction) is a pointer check and nothing else — no clock read, no
/// lock. This is the near-zero-cost no-op path of the instrumentation hooks.
class Span {
 public:
  Span() = default;
  Span(Trace* trace, std::string_view name, uint64_t parent = 0) : trace_(trace) {
    if (trace_ != nullptr) id_ = trace_->StartSpan(name, parent);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept : trace_(other.trace_), id_(other.id_) {
    other.trace_ = nullptr;
  }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      End();
      trace_ = other.trace_;
      id_ = other.id_;
      other.trace_ = nullptr;
    }
    return *this;
  }
  ~Span() { End(); }

  /// Finishes the span (idempotent; also called by the destructor).
  void End() {
    if (trace_ != nullptr) {
      trace_->EndSpan(id_);
      trace_ = nullptr;
    }
  }

  bool enabled() const { return trace_ != nullptr; }
  /// True when annotations should be captured (tracing on + detail mode).
  bool detail() const { return trace_ != nullptr && trace_->capture_detail(); }
  uint64_t id() const { return id_; }
  Trace* trace() const { return trace_; }

  void AddAttr(std::string_view key, std::string value) {
    if (trace_ != nullptr) trace_->AddAttr(id_, key, std::move(value));
  }
  void SetStats(const TranslationStats& stats) {
    if (trace_ != nullptr) trace_->SetStats(id_, stats);
  }

 private:
  Trace* trace_ = nullptr;
  uint64_t id_ = 0;
};

/// Parses a Trace::ToJson() document back into a ParsedTrace.
Result<ParsedTrace> ParseTraceJson(const std::string& json);

/// Folds every finished span's duration into `registry` as a per-phase
/// latency histogram named `qmap_span_<name>_us` (span names sanitized to
/// metric charset, e.g. "cache.lookup" → qmap_span_cache_lookup_us). A
/// standalone utility for callers that hold a trace and want its spans as
/// histograms; it renders a name and looks up a histogram per span. The
/// service does not call it: its per-stage qmap_stage_*_us histograms are
/// fed from clock reads (docs/OBSERVABILITY.md). Fold each trace once; a
/// trace folded twice counts its spans twice.
void RecordTraceMetrics(const Trace& trace, MetricsRegistry* registry);

}  // namespace qmap

#endif  // QMAP_OBS_TRACE_H_
