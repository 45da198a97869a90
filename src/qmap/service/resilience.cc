#include "qmap/service/resilience.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <thread>
#include <utility>

#include "qmap/obs/metrics.h"
#include "qmap/obs/trace.h"

namespace qmap {
namespace {

class SystemClock : public ResilienceClock {
 public:
  uint64_t NowUs() override {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  void SleepUs(uint64_t us) override {
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
};

}  // namespace

ResilienceClock& DefaultResilienceClock() {
  static SystemClock clock;
  return clock;
}

// ---------------------------------------------------------------------------
// DeadlineBudget

uint64_t DeadlineBudget::remaining_us(uint64_t now_us) const {
  if (!bounded()) return std::numeric_limits<uint64_t>::max();
  return now_us >= deadline_us ? 0 : deadline_us - now_us;
}

DeadlineBudget DeadlineBudget::Narrowed(uint64_t now_us,
                                        uint64_t timeout_us) const {
  if (timeout_us == 0) return *this;
  const uint64_t child = now_us + timeout_us;
  if (!bounded() || child < deadline_us) return DeadlineBudget{child};
  return *this;
}

// ---------------------------------------------------------------------------
// Retry policy

bool IsRetryable(StatusCode code) { return code == StatusCode::kUnavailable; }

bool IsSourceDropFailure(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kCancelled;
}

uint64_t NextDecorrelatedBackoffUs(const RetryPolicy& policy, uint64_t prev_us,
                                   std::mt19937_64& rng) {
  const uint64_t lo = std::max<uint64_t>(1, policy.initial_backoff_us);
  uint64_t hi =
      prev_us > std::numeric_limits<uint64_t>::max() / 3 ? prev_us : prev_us * 3;
  hi = std::max(lo, hi);
  std::uniform_int_distribution<uint64_t> dist(lo, hi);
  uint64_t next = dist(rng);
  if (policy.max_backoff_us > 0) next = std::min(next, policy.max_backoff_us);
  return next;
}

// ---------------------------------------------------------------------------
// CircuitBreaker

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions options)
    : options_(options),
      window_(static_cast<size_t>(std::max(1, options.window)), false) {}

void CircuitBreaker::ResetWindowLocked() {
  std::fill(window_.begin(), window_.end(), false);
  window_pos_ = 0;
  window_filled_ = 0;
  window_failures_ = 0;
}

bool CircuitBreaker::Allow(uint64_t now_us, BreakerEvent* event) {
  if (event != nullptr) *event = BreakerEvent::kNone;
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now_us >= opened_at_us_ + options_.cooldown_us) {
        state_ = State::kHalfOpen;
        half_open_in_flight_ = 1;  // this call is the first probe
        half_open_successes_ = 0;
        if (event != nullptr) *event = BreakerEvent::kHalfOpened;
        return true;
      }
      ++rejections_;
      return false;
    case State::kHalfOpen:
      if (half_open_in_flight_ < std::max(1, options_.half_open_probes)) {
        ++half_open_in_flight_;
        return true;
      }
      ++rejections_;
      return false;
  }
  return true;  // unreachable
}

BreakerEvent CircuitBreaker::RecordSuccess(uint64_t) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed: {
      if (window_filled_ == window_.size()) {
        if (window_[window_pos_]) --window_failures_;
      } else {
        ++window_filled_;
      }
      window_[window_pos_] = false;
      window_pos_ = (window_pos_ + 1) % window_.size();
      return BreakerEvent::kNone;
    }
    case State::kHalfOpen:
      ++half_open_successes_;
      if (half_open_successes_ >= std::max(1, options_.half_open_probes)) {
        state_ = State::kClosed;
        ResetWindowLocked();
        return BreakerEvent::kClosed;
      }
      return BreakerEvent::kNone;
    case State::kOpen:
      // A call admitted before the breaker opened finishing late; ignore.
      return BreakerEvent::kNone;
  }
  return BreakerEvent::kNone;  // unreachable
}

BreakerEvent CircuitBreaker::RecordFailure(uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed: {
      if (window_filled_ == window_.size()) {
        if (window_[window_pos_]) --window_failures_;
      } else {
        ++window_filled_;
      }
      window_[window_pos_] = true;
      ++window_failures_;
      window_pos_ = (window_pos_ + 1) % window_.size();
      if (window_filled_ >=
              static_cast<size_t>(std::max(1, options_.min_samples)) &&
          static_cast<double>(window_failures_) >=
              options_.open_threshold * static_cast<double>(window_filled_)) {
        state_ = State::kOpen;
        opened_at_us_ = now_us;
        return BreakerEvent::kOpened;
      }
      return BreakerEvent::kNone;
    }
    case State::kHalfOpen:
      state_ = State::kOpen;
      opened_at_us_ = now_us;
      return BreakerEvent::kReopened;
    case State::kOpen:
      return BreakerEvent::kNone;
  }
  return BreakerEvent::kNone;  // unreachable
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

uint64_t CircuitBreaker::rejections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejections_;
}

// ---------------------------------------------------------------------------
// Degraded-mode widening

Translation DegradeTranslation(const Query& original, const Translation& t,
                               uint32_t level) {
  Translation out;
  out.stats = t.stats;
  const uint32_t drop = std::max<uint32_t>(1, level);
  if (t.mapped.kind() == NodeKind::kAnd &&
      t.mapped.children().size() > static_cast<size_t>(drop)) {
    std::vector<Query> kept(t.mapped.children().begin(),
                            t.mapped.children().end() - drop);
    out.mapped = Query::And(std::move(kept));
  } else {
    out.mapped = Query::True();
  }
  // The degraded source vouches for nothing: with the coverage cleared, the
  // residue filter regains every constraint, so F ∧ S'(Q) ≡ Q still holds
  // for any subsuming S'(Q).
  out.coverage = ExactCoverage{};
  out.filter = ResidueFilter(original, out.coverage);
  return out;
}

// ---------------------------------------------------------------------------
// PartialResult

std::string PartialResult::ToString() const {
  std::string out;
  if (!failed.empty()) {
    out += "failed:";
    for (const SourceFailure& f : failed) {
      out += " " + f.source + " (" + f.status.ToString() + ", " +
             std::to_string(f.attempts) + " attempts)";
    }
  }
  if (!degraded.empty()) {
    if (!out.empty()) out += "; ";
    out += "degraded:";
    for (const std::string& name : degraded) out += " " + name;
  }
  if (out.empty()) out = "complete";
  return out;
}

// ---------------------------------------------------------------------------
// ResilienceManager

ResilienceManager::ResilienceManager(ResilienceOptions options,
                                     ResilienceClock* clock,
                                     FaultInjector* injector,
                                     MetricsRegistry* metrics)
    : options_(options),
      clock_(clock != nullptr ? clock : &DefaultResilienceClock()),
      injector_(injector),
      backoff_rng_(options.seed) {
  if (metrics != nullptr) {
    retries_counter_ = &metrics->counter("qmap_resilience_retries_total");
    deadline_counter_ = &metrics->counter("qmap_resilience_deadline_hits_total");
    rejections_counter_ =
        &metrics->counter("qmap_resilience_breaker_rejections_total");
    opened_counter_ = &metrics->counter("qmap_resilience_breaker_opened_total");
    half_opened_counter_ =
        &metrics->counter("qmap_resilience_breaker_half_opened_total");
    closed_counter_ = &metrics->counter("qmap_resilience_breaker_closed_total");
    degraded_counter_ = &metrics->counter("qmap_resilience_degraded_total");
    failures_counter_ =
        &metrics->counter("qmap_resilience_source_failures_total");
    partials_counter_ =
        &metrics->counter("qmap_resilience_partial_results_total");
    injected_counter_ =
        &metrics->counter("qmap_resilience_faults_injected_total");
  }
}

CircuitBreaker& ResilienceManager::BreakerFor(const std::string& source) {
  std::lock_guard<std::mutex> lock(breakers_mu_);
  std::unique_ptr<CircuitBreaker>& slot = breakers_[source];
  if (slot == nullptr) {
    slot = std::make_unique<CircuitBreaker>(options_.breaker);
  }
  return *slot;
}

void ResilienceManager::NoteBreakerEvent(BreakerEvent event) {
  switch (event) {
    case BreakerEvent::kNone:
      return;
    case BreakerEvent::kOpened:
    case BreakerEvent::kReopened:
      breaker_opened_.fetch_add(1, std::memory_order_relaxed);
      if (opened_counter_ != nullptr) opened_counter_->Inc();
      return;
    case BreakerEvent::kHalfOpened:
      breaker_half_opened_.fetch_add(1, std::memory_order_relaxed);
      if (half_opened_counter_ != nullptr) half_opened_counter_->Inc();
      return;
    case BreakerEvent::kClosed:
      breaker_closed_.fetch_add(1, std::memory_order_relaxed);
      if (closed_counter_ != nullptr) closed_counter_->Inc();
      return;
  }
}

Result<Translation> ResilienceManager::GuardedTranslate(
    const std::string& source, const Query& original,
    const CancelToken* cancel,
    const std::function<Result<Translation>()>& attempt, CallReport* report,
    Trace* trace, uint64_t parent_span) {
  CallReport local_report;
  if (report == nullptr) report = &local_report;
  *report = CallReport{};

  const auto fail = [&](Status status) -> Result<Translation> {
    source_failures_.fetch_add(1, std::memory_order_relaxed);
    if (failures_counter_ != nullptr) failures_counter_->Inc();
    return status;
  };

  uint64_t now = clock_->NowUs();
  const DeadlineBudget budget =
      (cancel != nullptr ? cancel->budget : DeadlineBudget{})
          .Narrowed(now, options_.source_deadline_us);
  CircuitBreaker& breaker = BreakerFor(source);
  const int max_attempts = std::max(1, options_.retry.max_attempts);
  uint64_t prev_backoff_us = options_.retry.initial_backoff_us;

  for (int try_no = 1;; ++try_no) {
    now = clock_->NowUs();
    if (cancel != nullptr &&
        cancel->cancelled.load(std::memory_order_relaxed)) {
      return fail(Status::Cancelled("request cancelled before translating '" +
                                    source + "'"));
    }
    if (budget.expired(now)) {
      report->deadline_hit = true;
      deadline_hits_.fetch_add(1, std::memory_order_relaxed);
      if (deadline_counter_ != nullptr) deadline_counter_->Inc();
      return fail(Status::DeadlineExceeded(
          "deadline exceeded before attempt " + std::to_string(try_no) +
          " for source '" + source + "'"));
    }
    BreakerEvent allow_event = BreakerEvent::kNone;
    if (!breaker.Allow(now, &allow_event)) {
      report->breaker_rejected = true;
      breaker_rejections_.fetch_add(1, std::memory_order_relaxed);
      if (rejections_counter_ != nullptr) rejections_counter_->Inc();
      return fail(Status::Unavailable("circuit breaker open for source '" +
                                      source + "'"));
    }
    NoteBreakerEvent(allow_event);
    ++report->attempts;

    const auto run_once = [&]() -> Result<Translation> {
      Span attempt_span(trace, "retry.attempt", parent_span);
      if (attempt_span.enabled()) {
        attempt_span.AddAttr("source", source);
        attempt_span.AddAttr("attempt", std::to_string(try_no));
      }
      Fault fault = injector_ != nullptr ? injector_->Next(source) : Fault{};
      if (fault.kind != FaultKind::kNone && injected_counter_ != nullptr) {
        injected_counter_->Inc();
      }
      switch (fault.kind) {
        case FaultKind::kFail:
          if (attempt_span.enabled()) attempt_span.AddAttr("fault", "fail");
          return fault.status.ok()
                     ? Status::Unavailable("injected fault for '" + source + "'")
                     : fault.status;
        case FaultKind::kStall: {
          if (attempt_span.enabled()) attempt_span.AddAttr("fault", "stall");
          clock_->SleepUs(fault.stall_us);
          if (budget.expired(clock_->NowUs())) {
            return Status::DeadlineExceeded("source '" + source +
                                            "' stalled past its deadline");
          }
          return attempt();
        }
        case FaultKind::kDegrade: {
          if (attempt_span.enabled()) attempt_span.AddAttr("fault", "degrade");
          Result<Translation> real = attempt();
          if (!real.ok()) return real;
          report->degraded = true;
          degraded_.fetch_add(1, std::memory_order_relaxed);
          if (degraded_counter_ != nullptr) degraded_counter_->Inc();
          return DegradeTranslation(original, *real, fault.degrade_level);
        }
        case FaultKind::kNone:
          return attempt();
      }
      return attempt();  // unreachable
    };

    Result<Translation> result = run_once();
    now = clock_->NowUs();
    if (result.ok()) {
      NoteBreakerEvent(breaker.RecordSuccess(now));
      return result;
    }
    NoteBreakerEvent(breaker.RecordFailure(now));
    const StatusCode code = result.status().code();
    if (code == StatusCode::kDeadlineExceeded) {
      report->deadline_hit = true;
      deadline_hits_.fetch_add(1, std::memory_order_relaxed);
      if (deadline_counter_ != nullptr) deadline_counter_->Inc();
      return fail(result.status());
    }
    if (!IsRetryable(code) || try_no >= max_attempts) {
      return fail(result.status());
    }
    uint64_t backoff_us;
    {
      std::lock_guard<std::mutex> lock(rng_mu_);
      backoff_us =
          NextDecorrelatedBackoffUs(options_.retry, prev_backoff_us,
                                    backoff_rng_);
    }
    prev_backoff_us = backoff_us;
    // Never sleep past the budget; the expiry check at the top of the next
    // iteration converts an exhausted budget into DeadlineExceeded.
    if (budget.bounded()) {
      backoff_us = std::min(backoff_us, budget.remaining_us(now));
    }
    if (backoff_us > 0) {
      const int64_t backoff_start_ns = trace != nullptr ? trace->NowNs() : 0;
      clock_->SleepUs(backoff_us);
      if (trace != nullptr) {
        trace->AddCompleteSpan("retry.backoff", parent_span, backoff_start_ns,
                               trace->NowNs());
      }
    }
    ++report->retries;
    retries_.fetch_add(1, std::memory_order_relaxed);
    if (retries_counter_ != nullptr) retries_counter_->Inc();
  }
}

const char* CircuitBreaker::StateName(State state) {
  switch (state) {
    case State::kClosed: return "closed";
    case State::kOpen: return "open";
    case State::kHalfOpen: return "half_open";
  }
  return "unknown";
}

CircuitBreaker::State ResilienceManager::breaker_state(
    const std::string& source) const {
  std::lock_guard<std::mutex> lock(breakers_mu_);
  auto it = breakers_.find(source);
  if (it == breakers_.end()) return CircuitBreaker::State::kClosed;
  return it->second->state();
}

std::vector<std::pair<std::string, CircuitBreaker::State>>
ResilienceManager::breaker_states() const {
  std::lock_guard<std::mutex> lock(breakers_mu_);
  std::vector<std::pair<std::string, CircuitBreaker::State>> out;
  out.reserve(breakers_.size());
  for (const auto& [source, breaker] : breakers_) {
    out.emplace_back(source, breaker->state());
  }
  return out;
}

void ResilienceManager::RecordPartialResult(size_t) {
  partial_results_.fetch_add(1, std::memory_order_relaxed);
  if (partials_counter_ != nullptr) partials_counter_->Inc();
}

const CancelToken* ResilienceManager::MakeRequestToken(
    CancelToken* storage) const {
  if (options_.request_deadline_us == 0) return nullptr;
  storage->budget = DeadlineBudget{}.Narrowed(clock_->NowUs(),
                                              options_.request_deadline_us);
  return storage;
}

ResilienceCounters ResilienceManager::counters() const {
  ResilienceCounters out;
  out.retries = retries_.load(std::memory_order_relaxed);
  out.deadline_hits = deadline_hits_.load(std::memory_order_relaxed);
  out.breaker_rejections = breaker_rejections_.load(std::memory_order_relaxed);
  out.breaker_opened = breaker_opened_.load(std::memory_order_relaxed);
  out.breaker_half_opened =
      breaker_half_opened_.load(std::memory_order_relaxed);
  out.breaker_closed = breaker_closed_.load(std::memory_order_relaxed);
  out.degraded = degraded_.load(std::memory_order_relaxed);
  out.source_failures = source_failures_.load(std::memory_order_relaxed);
  out.partial_results = partial_results_.load(std::memory_order_relaxed);
  out.faults_injected =
      injector_ != nullptr ? injector_->faults_injected() : 0;
  return out;
}

}  // namespace qmap
