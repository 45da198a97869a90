#ifndef QMAP_SERVICE_RESILIENCE_H_
#define QMAP_SERVICE_RESILIENCE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "qmap/common/status.h"
#include "qmap/core/translator.h"
#include "qmap/service/fault_injection.h"

namespace qmap {

class Counter;
class MetricsRegistry;
class Trace;

// ---------------------------------------------------------------------------
// Clocks

/// The time source for deadlines, backoff waits, and injected stalls. All
/// resilience machinery reads time through this interface so tests can run
/// every timing scenario on a virtual clock — no real sleeps anywhere in the
/// deterministic suite (tests/resilience_test.cc).
class ResilienceClock {
 public:
  virtual ~ResilienceClock() = default;
  /// Monotonic microseconds since an arbitrary epoch.
  virtual uint64_t NowUs() = 0;
  /// Blocks (or virtually advances) for `us` microseconds.
  virtual void SleepUs(uint64_t us) = 0;
};

/// The process-wide real clock: steady_clock + this_thread::sleep_for.
ResilienceClock& DefaultResilienceClock();

/// A virtual clock for tests: NowUs reads an atomic, SleepUs *advances* it —
/// a sleeping "thread" just moves time forward, so stalls and backoff waits
/// are instantaneous in real time while remaining visible to every deadline
/// check. Safe to share across the service's pool workers.
class ManualClock : public ResilienceClock {
 public:
  explicit ManualClock(uint64_t start_us = 0) : now_us_(start_us) {}
  uint64_t NowUs() override { return now_us_.load(std::memory_order_relaxed); }
  void SleepUs(uint64_t us) override { Advance(us); }
  void Advance(uint64_t us) {
    now_us_.fetch_add(us, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> now_us_;
};

// ---------------------------------------------------------------------------
// Deadlines and cancellation

/// An absolute deadline on the resilience clock. The zero value is
/// "unbounded". Budgets *narrow* as they propagate down the call tree
/// (request → per-query → per-source attempt): a child deadline is
/// min(parent deadline, now + child timeout), so no retry or stall can spend
/// more than the caller's remaining budget.
struct DeadlineBudget {
  uint64_t deadline_us = 0;  // absolute clock reading; 0 = unbounded

  bool bounded() const { return deadline_us != 0; }
  bool expired(uint64_t now_us) const {
    return bounded() && now_us >= deadline_us;
  }
  /// Remaining budget (UINT64_MAX when unbounded, 0 when expired).
  uint64_t remaining_us(uint64_t now_us) const;
  /// This budget further limited by `timeout_us` from `now_us`
  /// (timeout 0 = no extra limit).
  DeadlineBudget Narrowed(uint64_t now_us, uint64_t timeout_us) const;
};

/// Shared cancellation state for one request (a Translate call or a whole
/// TranslateBatch). Workers poll it between units of work; nothing preempts
/// a translation already running. The token lives on the *caller's* stack,
/// so the fan-out must never let a worker outlive the caller's wait — see
/// the lifetime contract in TranslationService::TranslateFull.
struct CancelToken {
  std::atomic<bool> cancelled{false};
  DeadlineBudget budget;

  void Cancel() { cancelled.store(true, std::memory_order_relaxed); }
  bool Expired(uint64_t now_us) const {
    return cancelled.load(std::memory_order_relaxed) || budget.expired(now_us);
  }
};

// ---------------------------------------------------------------------------
// Retry policy

struct RetryPolicy {
  /// Total tries per source call (1 = no retry).
  int max_attempts = 3;
  /// First backoff, and the cap for the decorrelated-jitter growth.
  uint64_t initial_backoff_us = 1000;
  uint64_t max_backoff_us = 50000;
};

/// Only transient source conditions are worth retrying. DeadlineExceeded is
/// deliberately not retryable: the budget that produced it is already gone.
bool IsRetryable(StatusCode code);

/// Failure categories a partial-tolerant federation may drop a source over
/// (Unavailable / DeadlineExceeded / Cancelled). Permanent errors — a broken
/// spec, a parse error — still fail the whole call: serving a silently
/// wrong federation is worse than serving an error.
bool IsSourceDropFailure(StatusCode code);

/// Decorrelated-jitter backoff (the "decorrelated jitter" scheme from the
/// AWS architecture blog): next = min(max, uniform(initial, prev * 3)).
/// Decorrelation keeps concurrent retriers from synchronizing into waves.
uint64_t NextDecorrelatedBackoffUs(const RetryPolicy& policy, uint64_t prev_us,
                                   std::mt19937_64& rng);

// ---------------------------------------------------------------------------
// Circuit breaker

struct CircuitBreakerOptions {
  /// Sliding window of most recent call outcomes per source.
  int window = 16;
  /// Outcomes required in the window before the breaker may trip.
  int min_samples = 8;
  /// Failure rate over the window that opens the breaker.
  double open_threshold = 0.5;
  /// Open → half-open after this much clock time.
  uint64_t cooldown_us = 100000;
  /// Probe calls admitted while half-open; this many consecutive probe
  /// successes close the breaker, any probe failure re-opens it.
  int half_open_probes = 2;
};

/// State transitions surfaced to the caller (for qmap_resilience_breaker_*
/// counters and tests).
enum class BreakerEvent { kNone, kOpened, kHalfOpened, kClosed, kReopened };

/// A per-source circuit breaker: closed (calls flow, outcomes recorded into
/// a failure-rate window) → open (calls rejected fast, no source work) →
/// half-open after a cooldown (limited probes) → closed on probe success or
/// re-open on probe failure. Thread-safe; every method takes a short mutex.
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(CircuitBreakerOptions options);

  /// May the next call proceed? Handles the open → half-open transition
  /// (reported via `event`); returns false for fast rejection.
  bool Allow(uint64_t now_us, BreakerEvent* event = nullptr);
  BreakerEvent RecordSuccess(uint64_t now_us);
  BreakerEvent RecordFailure(uint64_t now_us);

  State state() const;
  uint64_t rejections() const;

  /// Human-readable FSM state name: "closed" / "open" / "half_open". Used
  /// by the admin plane (/statusz, the qmap_breaker_state_* gauges' docs).
  static const char* StateName(State state);

 private:
  void ResetWindowLocked();

  const CircuitBreakerOptions options_;
  mutable std::mutex mu_;
  State state_ = State::kClosed;
  std::vector<bool> window_;  // ring buffer of outcomes (true = failure)
  size_t window_pos_ = 0;
  size_t window_filled_ = 0;
  size_t window_failures_ = 0;
  uint64_t opened_at_us_ = 0;
  int half_open_in_flight_ = 0;
  int half_open_successes_ = 0;
  uint64_t rejections_ = 0;
};

// ---------------------------------------------------------------------------
// Degraded-mode widening

/// The "safely widened" translation a degraded source answers with: trailing
/// conjuncts of the mapped query's root ∧ are dropped (`level` of them; a
/// non-∧ root or level ≥ fanout widens all the way to True), and the exact
/// coverage is cleared. Dropping conjuncts can only *weaken* a conjunction,
/// so S'(Q) ⊇ S(Q) ⊇ Q — Definition 1's subsumption is preserved, which is
/// exactly what keeps degraded mode sound: with the coverage gone, the
/// recomputed residue filter F regains every constraint this source was
/// trusted with, and F ∧ S'(Q) still reconstructs Q's selectivity
/// (docs/ROBUSTNESS.md; property-tested in tests/subsumption_property_test.cc).
Translation DegradeTranslation(const Query& original, const Translation& t,
                               uint32_t level);

// ---------------------------------------------------------------------------
// Policy + manager

struct ResilienceOptions {
  /// Master switch. Off (the default) keeps every guarded call site on its
  /// original zero-overhead path; a configured FaultInjector implies the
  /// guarded path even when this is false.
  bool enabled = false;
  /// Minimum surviving sources for a partial result to be served; fewer
  /// survivors fail the call with Unavailable. A source is dropped into
  /// MediatorTranslation::partial, rather than failing the call, only for a
  /// resilience-category failure (IsSourceDropFailure).
  size_t min_sources = 1;
  /// Per-source-call budget, covering all retry attempts and backoffs for
  /// that source (0 = none).
  uint64_t source_deadline_us = 0;
  /// Whole-request budget: one Translate call, or one entire TranslateBatch
  /// (0 = none). Propagates down: each source call's budget is the narrower
  /// of this and source_deadline_us.
  uint64_t request_deadline_us = 0;
  RetryPolicy retry;
  CircuitBreakerOptions breaker;
  /// Seed for the backoff jitter RNG (fixed default keeps runs reproducible).
  uint64_t seed = 0x9e3779b97f4a7c15ull;
};

/// Monotonic counters over the manager lifetime (mirrored into
/// qmap_resilience_* metrics when a registry is attached).
struct ResilienceCounters {
  uint64_t retries = 0;
  uint64_t deadline_hits = 0;
  uint64_t breaker_rejections = 0;
  uint64_t breaker_opened = 0;
  uint64_t breaker_half_opened = 0;
  uint64_t breaker_closed = 0;
  uint64_t degraded = 0;
  uint64_t source_failures = 0;
  uint64_t partial_results = 0;
  uint64_t faults_injected = 0;
};

/// Per-federation resilience state: one circuit breaker per source, the
/// retry/backoff policy, deadline propagation, the fault-injection hook, and
/// the qmap_resilience_* counters. One manager is shared by all requests of
/// a TranslationService; all methods are thread-safe.
class ResilienceManager {
 public:
  /// `clock`, `injector`, `metrics` may each be null (system clock, no
  /// faults, no metrics); when non-null they must outlive the manager.
  ResilienceManager(ResilienceOptions options, ResilienceClock* clock,
                    FaultInjector* injector, MetricsRegistry* metrics);

  /// What happened to one guarded source call (for PartialResult entries and
  /// TranslationStats).
  struct CallReport {
    uint32_t attempts = 0;
    uint32_t retries = 0;
    bool breaker_rejected = false;
    bool deadline_hit = false;
    bool degraded = false;
  };

  /// One call translating the group members listed by index (into the
  /// guarded `sources`); must return one result per listed member, in
  /// order.
  using GroupAttempt = std::function<std::vector<Result<Translation>>(
      std::span<const size_t> members)>;

  /// The guard over sources that one call translates together: one local
  /// source on its own, or a front-end's remote sources on one worker. It
  /// runs `attempt` (the real translation of `original`) under each
  /// source's circuit breaker, the retry policy with decorrelated backoff,
  /// fault injection, and the deadline budget. Each round, every pending
  /// source checks cancellation, the budget and its own breaker, and draws
  /// its own injected fault; the sources that pass join one `attempt`. Each
  /// outcome goes to its own breaker and its own report (`reports` has one
  /// slot per source). Only retryable failures stay pending, with one
  /// backoff per round, capped by the budget. One budget — `cancel`'s (may
  /// be null), narrowed by source_deadline_us — covers every round. A round's
  /// injected stalls are slept once, for the longest: the call waits for
  /// its slowest member. When that exhausts the budget no call is made, the
  /// stalled sources fail with DeadlineExceeded and so does every other
  /// source of the round (docs/ROBUSTNESS.md). Each round is one
  /// "retry.attempt" span under `parent_span` (attr `source` lists the
  /// round's sources) and each backoff one "retry.backoff" span.
  /// Returns one result per source, in order.
  std::vector<Result<Translation>> GuardedTranslateGroup(
      std::span<const std::string_view> sources, const Query& original,
      const CancelToken* cancel, const GroupAttempt& attempt,
      std::span<CallReport> reports, Trace* trace = nullptr,
      uint64_t parent_span = 0);

  /// Breaker state for `source` (kClosed if never called).
  CircuitBreaker::State breaker_state(const std::string& source) const;

  /// All breakers instantiated so far, as (source, state) pairs in source
  /// order. Sources never guarded yet have no breaker and do not appear —
  /// callers that want the full federation view default those to kClosed.
  std::vector<std::pair<std::string, CircuitBreaker::State>> breaker_states()
      const;

  /// Counts one partial result served (the per-failed-source counting
  /// happens inside GuardedTranslateGroup).
  void RecordPartialResult(size_t num_failed_sources);

  /// The whole-request budget: arms `storage` with request_deadline_us from
  /// now and returns it, or returns nullptr when no request deadline is
  /// configured. Callers own `storage`, which must outlive the request.
  const CancelToken* MakeRequestToken(CancelToken* storage) const;

  ResilienceCounters counters() const;
  ResilienceClock* clock() const { return clock_; }
  FaultInjector* injector() const { return injector_; }
  const ResilienceOptions& options() const { return options_; }

 private:
  CircuitBreaker& BreakerFor(std::string_view source);
  void NoteBreakerEvent(BreakerEvent event);

  const ResilienceOptions options_;
  ResilienceClock* const clock_;     // never null (defaulted in ctor)
  FaultInjector* const injector_;    // may be null
  mutable std::mutex breakers_mu_;
  std::map<std::string, std::unique_ptr<CircuitBreaker>, std::less<>>
      breakers_;
  std::mutex rng_mu_;
  std::mt19937_64 backoff_rng_;  // guarded by rng_mu_

  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> deadline_hits_{0};
  std::atomic<uint64_t> breaker_rejections_{0};
  std::atomic<uint64_t> breaker_opened_{0};
  std::atomic<uint64_t> breaker_half_opened_{0};
  std::atomic<uint64_t> breaker_closed_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> source_failures_{0};
  std::atomic<uint64_t> partial_results_{0};

  // Cached metric handles; null when no registry was attached.
  Counter* retries_counter_ = nullptr;
  Counter* deadline_counter_ = nullptr;
  Counter* rejections_counter_ = nullptr;
  Counter* opened_counter_ = nullptr;
  Counter* half_opened_counter_ = nullptr;
  Counter* closed_counter_ = nullptr;
  Counter* degraded_counter_ = nullptr;
  Counter* failures_counter_ = nullptr;
  Counter* partials_counter_ = nullptr;
  Counter* injected_counter_ = nullptr;
};

}  // namespace qmap

#endif  // QMAP_SERVICE_RESILIENCE_H_
