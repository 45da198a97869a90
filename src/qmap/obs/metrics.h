#ifndef QMAP_OBS_METRICS_H_
#define QMAP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>

namespace qmap {

/// A monotonically increasing counter. Lock-free; safe to increment from any
/// number of threads concurrently.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  /// Adds the shortfall of the value against `total`, if any: mirrors a
  /// monotonic total kept elsewhere (process-wide stats read at scrape
  /// time). Concurrent or repeated calls never count a unit twice.
  void RaiseTo(uint64_t total) {
    uint64_t have = value_.load(std::memory_order_relaxed);
    while (have < total &&
           !value_.compare_exchange_weak(have, total,
                                         std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A point-in-time value (queue depth, cache entry count, breaker state).
/// Unlike a Counter it may go down; unlike a Histogram it has no history —
/// the exported value is whatever the last Set/Add left behind. Lock-free.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// A log₂-bucketed histogram of non-negative integer samples (latencies in
/// microseconds, sizes, counts). Bucket b ≥ 1 holds samples in
/// [2^{b-1}, 2^b - 1]; bucket 0 holds exactly the sample 0 — i.e. a sample v
/// lands in bucket bit_width(v). Recording is two relaxed atomic adds plus
/// one to the bucket: cheap enough for per-span use under the thread pool.
///
/// Quantiles are estimated by walking the cumulative bucket counts and
/// interpolating linearly inside the selected bucket — exact for the bucket
/// boundaries themselves, within a factor of 2 everywhere (the usual
/// log-bucket contract; see tests/obs_test.cc for the pinned boundaries).
///
/// Each bucket additionally remembers one *exemplar*: the trace serial
/// (Trace::serial(), 0 = none) of the most recent sample recorded into it
/// via RecordWithExemplar. An exemplar turns an anonymous p99 bucket into a
/// pointer at a concrete retained trace — the admin server's
/// /tracez?bucket=N jump (docs/OBSERVABILITY.md).
class Histogram {
 public:
  static constexpr int kNumBuckets = 65;  // bit_width(uint64) ∈ [0, 64]

  /// Bucket index a sample lands in: bit_width(v) (0 for v = 0).
  static int BucketFor(uint64_t v);
  /// Inclusive upper bound of bucket b: 0 for b = 0, else 2^b - 1
  /// (UINT64_MAX for the last bucket).
  static uint64_t BucketUpperBound(int b);

  void Record(uint64_t v);
  /// Record plus an exemplar: the bucket `v` lands in remembers
  /// `trace_serial` as its most recent exemplar (0 leaves it untouched).
  void RecordWithExemplar(uint64_t v, uint64_t trace_serial);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket_count(int b) const {
    return buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }
  /// The most recent exemplar trace serial recorded into bucket b (0 = none).
  uint64_t exemplar(int b) const {
    return exemplars_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }

  /// A point-in-time copy of the bucket array. `total` is derived from the
  /// copied buckets (not from the separate count_ atomic), so any view
  /// computed from one Snapshot is internally consistent: cumulative bucket
  /// counts are monotone and their grand total equals `total` by
  /// construction, even while other threads keep calling Record(). `sum` is
  /// read from its own atomic and may run slightly ahead of or behind the
  /// buckets; it is never used to cross-check them. `exemplars` are the
  /// per-bucket trace serials (racy in the same benign way as `sum`).
  struct Snapshot {
    std::array<uint64_t, kNumBuckets> buckets{};
    std::array<uint64_t, kNumBuckets> exemplars{};
    uint64_t total = 0;
    uint64_t sum = 0;
  };
  Snapshot TakeSnapshot() const;

  /// The quantile estimate computed over one consistent Snapshot.
  static double QuantileOf(const Snapshot& snap, double q);

  /// Estimated q-quantile (q in [0, 1]) of the recorded samples; 0 when the
  /// histogram is empty. Quantile(0.5) = p50, Quantile(0.99) = p99.
  /// Equivalent to QuantileOf(TakeSnapshot(), q).
  double Quantile(double q) const;

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::array<std::atomic<uint64_t>, kNumBuckets> exemplars_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// A named registry of counters, gauges and histograms, shared across the
/// service and the pool. Lookup by name takes a shared lock (exclusive only
/// on first creation); instrumented hot paths should look a metric up once
/// and cache the returned reference — metric addresses are stable for the
/// registry's lifetime.
///
/// An optional `help` description may be passed at first registration; it is
/// emitted as the Prometheus `# HELP` line (later lookups may omit it — the
/// first non-empty description wins).
///
/// Exports:
///   ToJson()           — {"build_info": {...}, "counters": {...},
///                        "gauges": {...}, "histograms": {...}} with
///                        count/sum/p50/p95/p99, the non-empty buckets, and
///                        per-bucket exemplar trace ids where present.
///   ToPrometheusText() — the Prometheus text exposition format; histogram
///                        buckets carry cumulative counts with le="2^b - 1",
///                        and a qmap_build_info{version="..."} 1 gauge
///                        identifies the binary. Names are sanitized
///                        ([^a-zA-Z0-9_] → '_').
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name, std::string_view help = "");
  Gauge& gauge(std::string_view name, std::string_view help = "");
  Histogram& histogram(std::string_view name, std::string_view help = "");

  /// The registered metric counts (mostly for tests).
  size_t num_counters() const;
  size_t num_gauges() const;
  size_t num_histograms() const;

  std::string ToJson() const;
  std::string ToPrometheusText() const;

 private:
  /// Stores `help` for `name` if non-empty and none is recorded yet.
  /// Caller must hold mu_ exclusively.
  void SetHelpLocked(std::string_view name, std::string_view help);
  /// The registered description for `name`, or "" . Caller must hold mu_.
  std::string_view HelpLocked(const std::string& name) const;

  mutable std::shared_mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> help_;
};

}  // namespace qmap

#endif  // QMAP_OBS_METRICS_H_
