#include "qmap/service/resilience.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
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

CircuitBreaker& ResilienceManager::BreakerFor(std::string_view source) {
  std::lock_guard<std::mutex> lock(breakers_mu_);
  auto it = breakers_.find(source);
  if (it == breakers_.end()) {
    it = breakers_
             .emplace(std::string(source),
                      std::make_unique<CircuitBreaker>(options_.breaker))
             .first;
  }
  return *it->second;
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

namespace {

const char* FaultName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFail: return "fail";
    case FaultKind::kStall: return "stall";
    case FaultKind::kDegrade: return "degrade";
    case FaultKind::kNone: return "none";
  }
  return "none";
}

}  // namespace

std::vector<Result<Translation>> ResilienceManager::GuardedTranslateGroup(
    std::span<const std::string_view> sources, const Query& original,
    const CancelToken* cancel, const GroupAttempt& attempt,
    std::span<CallReport> reports, Trace* trace, uint64_t parent_span) {
  // Per-source state across rounds.
  struct Member {
    CircuitBreaker* breaker = nullptr;
    Fault fault;                                  // this round's draw
    std::optional<Result<Translation>> outcome;   // this round's
    std::optional<Result<Translation>> result;    // final
  };
  const size_t n = sources.size();
  std::vector<Member> members(n);
  for (size_t k = 0; k < n; ++k) {
    reports[k] = CallReport{};
    members[k].breaker = &BreakerFor(sources[k]);
  }
  const auto quoted = [&](size_t k) {
    return "'" + std::string(sources[k]) + "'";
  };
  const auto fail = [&](size_t k, Status status) {
    source_failures_.fetch_add(1, std::memory_order_relaxed);
    if (failures_counter_ != nullptr) failures_counter_->Inc();
    members[k].result.emplace(std::move(status));
  };
  const auto note_deadline = [&](size_t k) {
    reports[k].deadline_hit = true;
    deadline_hits_.fetch_add(1, std::memory_order_relaxed);
    if (deadline_counter_ != nullptr) deadline_counter_->Inc();
  };

  uint64_t now = clock_->NowUs();
  const DeadlineBudget budget =
      (cancel != nullptr ? cancel->budget : DeadlineBudget{})
          .Narrowed(now, options_.source_deadline_us);
  const int max_attempts = std::max(1, options_.retry.max_attempts);
  uint64_t prev_backoff_us = options_.retry.initial_backoff_us;

  std::vector<size_t> pending(n);
  for (size_t k = 0; k < n; ++k) pending[k] = k;
  std::vector<size_t> tried;   // passed the checks this round
  std::vector<size_t> joined;  // of those, the ones the call carries
  for (int try_no = 1; !pending.empty(); ++try_no) {
    now = clock_->NowUs();
    tried.clear();
    for (size_t k : pending) {
      if (cancel != nullptr &&
          cancel->cancelled.load(std::memory_order_relaxed)) {
        fail(k, Status::Cancelled("request cancelled before translating " +
                                  quoted(k)));
        continue;
      }
      if (budget.expired(now)) {
        note_deadline(k);
        fail(k, Status::DeadlineExceeded(
                    "deadline exceeded before attempt " +
                    std::to_string(try_no) + " for source " + quoted(k)));
        continue;
      }
      BreakerEvent allow_event = BreakerEvent::kNone;
      if (!members[k].breaker->Allow(now, &allow_event)) {
        reports[k].breaker_rejected = true;
        breaker_rejections_.fetch_add(1, std::memory_order_relaxed);
        if (rejections_counter_ != nullptr) rejections_counter_->Inc();
        fail(k, Status::Unavailable("circuit breaker open for source " +
                                    quoted(k)));
        continue;
      }
      NoteBreakerEvent(allow_event);
      ++reports[k].attempts;
      tried.push_back(k);
    }
    if (tried.empty()) break;

    {
      Span attempt_span(trace, "retry.attempt", parent_span);
      joined.clear();
      uint64_t stall_us = 0;
      std::string names, faults;
      for (size_t k : tried) {
        Member& m = members[k];
        m.fault = injector_ != nullptr
                      ? injector_->Next(std::string(sources[k]))
                      : Fault{};
        if (m.fault.kind != FaultKind::kNone && injected_counter_ != nullptr) {
          injected_counter_->Inc();
        }
        if (attempt_span.enabled()) {
          if (!names.empty()) names += ",";
          names += sources[k];
          if (m.fault.kind != FaultKind::kNone) {
            if (!faults.empty()) faults += ",";
            if (n > 1) faults += std::string(sources[k]) + "=";
            faults += FaultName(m.fault.kind);
          }
        }
        if (m.fault.kind == FaultKind::kFail) {
          m.outcome.emplace(m.fault.status.ok()
                                ? Status::Unavailable("injected fault for " +
                                                      quoted(k))
                                : m.fault.status);
          continue;
        }
        if (m.fault.kind == FaultKind::kStall) {
          stall_us = std::max(stall_us, m.fault.stall_us);
        }
        joined.push_back(k);
      }
      if (attempt_span.enabled()) {
        attempt_span.AddAttr("source", std::move(names));
        attempt_span.AddAttr("attempt", std::to_string(try_no));
        if (!faults.empty()) attempt_span.AddAttr("fault", std::move(faults));
      }
      if (stall_us > 0) {
        // The call waits for its slowest member; one budget covers it all.
        clock_->SleepUs(stall_us);
        if (budget.expired(clock_->NowUs())) {
          for (size_t k : joined) {
            members[k].outcome.emplace(Status::DeadlineExceeded(
                members[k].fault.kind == FaultKind::kStall
                    ? "source " + quoted(k) + " stalled past its deadline"
                    : "source " + quoted(k) +
                          " shared a call that stalled past its deadline"));
          }
          joined.clear();
        }
      }
      if (!joined.empty()) {
        std::vector<Result<Translation>> results = attempt(joined);
        for (size_t j = 0; j < joined.size(); ++j) {
          Member& m = members[joined[j]];
          if (m.fault.kind == FaultKind::kDegrade && results[j].ok()) {
            reports[joined[j]].degraded = true;
            degraded_.fetch_add(1, std::memory_order_relaxed);
            if (degraded_counter_ != nullptr) degraded_counter_->Inc();
            results[j] = DegradeTranslation(original, *results[j],
                                            m.fault.degrade_level);
          }
          m.outcome.emplace(std::move(results[j]));
        }
      }
    }

    now = clock_->NowUs();
    pending.clear();
    for (size_t k : tried) {
      Member& m = members[k];
      Result<Translation> outcome = *std::move(m.outcome);
      m.outcome.reset();
      if (outcome.ok()) {
        NoteBreakerEvent(m.breaker->RecordSuccess(now));
        m.result.emplace(std::move(outcome));
        continue;
      }
      NoteBreakerEvent(m.breaker->RecordFailure(now));
      const StatusCode code = outcome.status().code();
      if (code == StatusCode::kDeadlineExceeded) note_deadline(k);
      if (code == StatusCode::kDeadlineExceeded || !IsRetryable(code) ||
          try_no >= max_attempts) {
        fail(k, outcome.status());
        continue;
      }
      pending.push_back(k);
    }
    if (pending.empty()) break;

    // One backoff per round, for every source still pending.
    uint64_t backoff_us;
    {
      std::lock_guard<std::mutex> lock(rng_mu_);
      backoff_us =
          NextDecorrelatedBackoffUs(options_.retry, prev_backoff_us,
                                    backoff_rng_);
    }
    prev_backoff_us = backoff_us;
    // Never sleep past the budget; the expiry check at the top of the next
    // round converts an exhausted budget into DeadlineExceeded.
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
    for (size_t k : pending) {
      ++reports[k].retries;
      retries_.fetch_add(1, std::memory_order_relaxed);
      if (retries_counter_ != nullptr) retries_counter_->Inc();
    }
  }

  std::vector<Result<Translation>> out;
  out.reserve(n);
  for (Member& m : members) out.push_back(*std::move(m.result));
  return out;
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
