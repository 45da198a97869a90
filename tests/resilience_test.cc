// Deterministic fault-injection tests for the resilience layer: every
// timing scenario runs on a ManualClock (no real sleeps anywhere), every
// fault is scripted with a fixed seed, and the partial-result assertions
// compare byte-identical renderings against no-fault reference runs.

#include "qmap/service/resilience.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <latch>
#include <memory>
#include <string>
#include <vector>

#include "qmap/contexts/faculty.h"
#include "qmap/contexts/synthetic.h"
#include "qmap/expr/printer.h"
#include "qmap/mediator/federation.h"
#include "qmap/mediator/mediator.h"
#include "qmap/obs/metrics.h"
#include "qmap/service/fault_injection.h"
#include "qmap/service/thread_pool.h"
#include "qmap/service/translation_service.h"
#include "test_util.h"

namespace qmap {
namespace {

using testing::Q;

// ---------------------------------------------------------------------------
// Clocks and budgets

TEST(ManualClock, SleepAdvancesTime) {
  ManualClock clock(100);
  EXPECT_EQ(clock.NowUs(), 100u);
  clock.SleepUs(50);
  EXPECT_EQ(clock.NowUs(), 150u);
  clock.Advance(10);
  EXPECT_EQ(clock.NowUs(), 160u);
}

TEST(DeadlineBudget, NarrowingTakesTheTighterDeadline) {
  DeadlineBudget unbounded;
  EXPECT_FALSE(unbounded.bounded());
  EXPECT_FALSE(unbounded.expired(1u << 30));
  EXPECT_EQ(unbounded.Narrowed(100, 0).deadline_us, 0u);  // still unbounded

  DeadlineBudget request = unbounded.Narrowed(100, 1000);  // deadline 1100
  EXPECT_EQ(request.deadline_us, 1100u);
  EXPECT_EQ(request.remaining_us(600), 500u);
  EXPECT_TRUE(request.expired(1100));

  // A looser child timeout cannot widen the parent's budget...
  EXPECT_EQ(request.Narrowed(200, 5000).deadline_us, 1100u);
  // ...but a tighter one narrows it.
  EXPECT_EQ(request.Narrowed(200, 300).deadline_us, 500u);
}

TEST(CancelToken, ExpiresOnCancelOrDeadline) {
  CancelToken token;
  token.budget = DeadlineBudget{1000};
  EXPECT_FALSE(token.Expired(999));
  EXPECT_TRUE(token.Expired(1000));
  CancelToken cancelled;
  EXPECT_FALSE(cancelled.Expired(0));
  cancelled.Cancel();
  EXPECT_TRUE(cancelled.Expired(0));
}

// ---------------------------------------------------------------------------
// Backoff

TEST(RetryPolicy, DecorrelatedBackoffStaysWithinBounds) {
  RetryPolicy policy;
  policy.initial_backoff_us = 100;
  policy.max_backoff_us = 2000;
  std::mt19937_64 rng(7);
  uint64_t prev = policy.initial_backoff_us;
  for (int i = 0; i < 200; ++i) {
    uint64_t next = NextDecorrelatedBackoffUs(policy, prev, rng);
    EXPECT_GE(next, policy.initial_backoff_us);
    EXPECT_LE(next, policy.max_backoff_us);
    // Decorrelated jitter: next is drawn from [initial, prev * 3].
    EXPECT_LE(next, std::max<uint64_t>(policy.initial_backoff_us, prev * 3));
    prev = next;
  }
}

TEST(RetryPolicy, BackoffSequenceIsReproducibleForAFixedSeed) {
  RetryPolicy policy;
  std::mt19937_64 a(42), b(42);
  uint64_t prev_a = policy.initial_backoff_us, prev_b = prev_a;
  for (int i = 0; i < 50; ++i) {
    prev_a = NextDecorrelatedBackoffUs(policy, prev_a, a);
    prev_b = NextDecorrelatedBackoffUs(policy, prev_b, b);
    EXPECT_EQ(prev_a, prev_b);
  }
}

// ---------------------------------------------------------------------------
// Circuit breaker

CircuitBreakerOptions SmallBreaker() {
  CircuitBreakerOptions options;
  options.window = 4;
  options.min_samples = 4;
  options.open_threshold = 0.5;
  options.cooldown_us = 1000;
  options.half_open_probes = 2;
  return options;
}

TEST(CircuitBreaker, OpensAtTheFailureThresholdAndRejects) {
  CircuitBreaker breaker(SmallBreaker());
  uint64_t now = 0;
  // Two successes + one failure: window not full of enough failures yet.
  EXPECT_EQ(breaker.RecordSuccess(now), BreakerEvent::kNone);
  EXPECT_EQ(breaker.RecordSuccess(now), BreakerEvent::kNone);
  EXPECT_EQ(breaker.RecordFailure(now), BreakerEvent::kNone);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // Fourth sample brings the window to 4 with 2 failures = 50% → opens.
  EXPECT_EQ(breaker.RecordFailure(now), BreakerEvent::kOpened);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow(now + 10));
  EXPECT_FALSE(breaker.Allow(now + 999));
  EXPECT_EQ(breaker.rejections(), 2u);
}

TEST(CircuitBreaker, HalfOpensAfterCooldownAndClosesOnProbeSuccesses) {
  CircuitBreaker breaker(SmallBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(0);
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  BreakerEvent event = BreakerEvent::kNone;
  EXPECT_TRUE(breaker.Allow(1000, &event));  // cooldown elapsed → first probe
  EXPECT_EQ(event, BreakerEvent::kHalfOpened);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.Allow(1001, &event));  // second probe admitted
  EXPECT_EQ(event, BreakerEvent::kNone);
  EXPECT_FALSE(breaker.Allow(1002));  // probe quota exhausted

  EXPECT_EQ(breaker.RecordSuccess(1003), BreakerEvent::kNone);
  EXPECT_EQ(breaker.RecordSuccess(1004), BreakerEvent::kClosed);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // The window was reset on close: four fresh samples are needed to re-trip.
  EXPECT_EQ(breaker.RecordFailure(1005), BreakerEvent::kNone);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreaker, ReopensOnProbeFailure) {
  CircuitBreaker breaker(SmallBreaker());
  for (int i = 0; i < 4; ++i) breaker.RecordFailure(0);
  ASSERT_TRUE(breaker.Allow(1000));  // half-open probe
  EXPECT_EQ(breaker.RecordFailure(1001), BreakerEvent::kReopened);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  // The re-open restarts the cooldown from the failure time.
  EXPECT_FALSE(breaker.Allow(1500));
  EXPECT_TRUE(breaker.Allow(2001));
}

// ---------------------------------------------------------------------------
// Fault injector

TEST(FaultInjector, ScriptedFaultsAreConsumedInOrder) {
  FaultInjector injector(1);
  injector.FailNext("S0", 2);
  injector.StallNext("S0", 1, 500);
  EXPECT_EQ(injector.Next("S0").kind, FaultKind::kFail);
  EXPECT_EQ(injector.Next("S1").kind, FaultKind::kNone);  // other key untouched
  EXPECT_EQ(injector.Next("S0").kind, FaultKind::kFail);
  Fault stall = injector.Next("S0");
  EXPECT_EQ(stall.kind, FaultKind::kStall);
  EXPECT_EQ(stall.stall_us, 500u);
  EXPECT_EQ(injector.Next("S0").kind, FaultKind::kNone);  // script exhausted
  EXPECT_EQ(injector.calls(), 5u);
  EXPECT_EQ(injector.faults_injected(), 3u);
}

TEST(FaultInjector, RateDecisionsAreDeterministicPerSeedAndKey) {
  auto decisions = [](uint64_t seed) {
    FaultInjector injector(seed);
    injector.SetFailRate("S0", 0.5);
    injector.SetStallRate("S1", 0.5, 100);
    std::string out;
    for (int i = 0; i < 64; ++i) {
      out += injector.Next("S0").kind == FaultKind::kFail ? 'F' : '.';
      out += injector.Next("S1").kind == FaultKind::kStall ? 'S' : '.';
    }
    return out;
  };
  const std::string run = decisions(99);
  EXPECT_EQ(run, decisions(99));      // same seed → same sequence
  EXPECT_NE(run, decisions(100));     // different seed → different sequence
  EXPECT_NE(run.find('F'), std::string::npos);
  EXPECT_NE(run.find('S'), std::string::npos);

  // Interleaving with calls against other keys does not perturb a key's
  // stream: each key has its own RNG seeded seed ^ fnv64(key).
  FaultInjector a(99), b(99);
  a.SetFailRate("S0", 0.5);
  b.SetFailRate("S0", 0.5);
  std::string plain, interleaved;
  for (int i = 0; i < 64; ++i) {
    plain += a.Next("S0").kind == FaultKind::kFail ? 'F' : '.';
    b.Next("other");
    interleaved += b.Next("S0").kind == FaultKind::kFail ? 'F' : '.';
  }
  EXPECT_EQ(plain, interleaved);
}

// ---------------------------------------------------------------------------
// Degraded-mode widening

TEST(DegradeTranslation, DropsTrailingConjunctsAndClearsCoverage) {
  Query original = Q("[a = 1] and [b = 2] and [c = 3]");
  Translation t;
  t.mapped = Q("[x = 1] and [y = 2] and [z = 3]");
  Translation level1 = DegradeTranslation(original, t, 1);
  EXPECT_EQ(ToParseableText(level1.mapped),
            ToParseableText(Q("[x = 1] and [y = 2]")));
  // The cleared coverage pushes every original constraint back into F.
  EXPECT_EQ(ToParseableText(level1.filter), ToParseableText(original));

  Translation all = DegradeTranslation(original, t, 99);
  EXPECT_EQ(all.mapped.kind(), NodeKind::kTrue);
  EXPECT_EQ(ToParseableText(all.filter), ToParseableText(original));
}

// ---------------------------------------------------------------------------
// Service-level scenarios

// Canonical semantic rendering (mapped queries, per-source filters, merged
// residue F) for byte-identical comparisons; excludes observability stats.
std::string Render(const MediatorTranslation& t) {
  std::string out;
  for (const auto& [name, translation] : t.per_source) {
    out += name + ": " + ToParseableText(translation.mapped) + " / " +
           ToParseableText(translation.filter) + "\n";
  }
  out += "F: " + ToParseableText(t.filter) + "\n";
  return out;
}

constexpr int kNumSources = 4;

// A 4-source service over the synthetic federation substrate. The same
// specs are used with and without faults so renderings compare bytewise.
std::unique_ptr<TranslationService> MakeResilientService(
    FaultInjector* injector, ManualClock* clock,
    ResilienceOptions resilience = {}, int num_threads = 1,
    bool enable_cache = false, MetricsRegistry* metrics = nullptr,
    int num_sources = kNumSources) {
  ServiceOptions options;
  options.num_threads = num_threads;
  options.enable_cache = enable_cache;
  options.resilience = resilience;
  options.resilience.enabled = true;
  // Keep deterministic-suite backoffs tiny so even a SystemClock run (not
  // used here) would be fast.
  options.fault_injector = injector;
  options.clock = clock;
  options.obs.metrics = metrics;
  auto service = std::make_unique<TranslationService>(options);
  SyntheticFederationOptions fed;
  fed.num_members = num_sources;
  for (int m = 0; m < num_sources; ++m) {
    Result<MappingSpec> spec = MakeSyntheticSpec(SyntheticMemberOptions(fed, m));
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    service->AddSource("S" + std::to_string(m), *std::move(spec));
  }
  return service;
}

TEST(ResilientService, RetryThenSucceedMatchesNoFaultRun) {
  Query q = Q("[a0 = 1] and ([a1 = 2] or [a2 = 3])");
  auto reference = MakeResilientService(nullptr, nullptr);
  Result<MediatorTranslation> want = reference->Translate(q);
  ASSERT_TRUE(want.ok());

  FaultInjector injector(7);
  injector.FailNext("S0", 2);  // transient: fails twice, then recovers
  ManualClock clock;
  ResilienceOptions resilience;
  resilience.retry.max_attempts = 3;
  auto service = MakeResilientService(&injector, &clock, resilience);
  Result<MediatorTranslation> got = service->Translate(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  EXPECT_TRUE(got->partial.complete());
  EXPECT_EQ(Render(*got), Render(*want));  // recovered run is byte-identical
  EXPECT_EQ(got->stats.retries, 2u);
  EXPECT_EQ(service->resilience()->counters().retries, 2u);
  EXPECT_GT(clock.NowUs(), 0u);  // backoffs advanced the virtual clock
}

TEST(ResilientService, PartialResultDropsOnlyTheFailedSource) {
  Query q = Q("([a0 = 1] or [a1 = 2]) and [a2 = 3] and [a3 = 0]");
  auto reference = MakeResilientService(nullptr, nullptr);
  Result<MediatorTranslation> want = reference->Translate(q);
  ASSERT_TRUE(want.ok());

  FaultInjector injector(7);
  injector.FailNext("S1", 1000);  // S1 is down for good
  ManualClock clock;
  ResilienceOptions resilience;
  resilience.retry.max_attempts = 3;
  auto service = MakeResilientService(&injector, &clock, resilience);
  Result<MediatorTranslation> got = service->Translate(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  // Exactly S1 is reported failed, with the injected status and the number
  // of attempts the retry policy allowed it.
  ASSERT_EQ(got->partial.failed.size(), 1u);
  EXPECT_EQ(got->partial.failed[0].source, "S1");
  EXPECT_EQ(got->partial.failed[0].status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(got->partial.failed[0].attempts, 3u);
  EXPECT_EQ(got->per_source.count("S1"), 0u);
  EXPECT_EQ(got->stats.failed_sources, 1u);

  // Every surviving source's translation is byte-identical to the no-fault
  // run's.
  for (const auto& [name, translation] : got->per_source) {
    const Translation& ref = want->per_source.at(name);
    EXPECT_EQ(ToParseableText(translation.mapped), ToParseableText(ref.mapped))
        << name;
    EXPECT_EQ(ToParseableText(translation.filter), ToParseableText(ref.filter))
        << name;
  }

  // F was recomputed from the survivors only: it equals the F of a
  // federation that never contained S1 in the first place.
  {
    ServiceOptions options;
    options.num_threads = 1;
    options.enable_cache = false;
    auto rebuilt = std::make_unique<TranslationService>(options);
    SyntheticFederationOptions fed;
    fed.num_members = kNumSources;
    for (int m = 0; m < kNumSources; ++m) {
      if (m == 1) continue;
      Result<MappingSpec> spec =
          MakeSyntheticSpec(SyntheticMemberOptions(fed, m));
      ASSERT_TRUE(spec.ok());
      rebuilt->AddSource("S" + std::to_string(m), *std::move(spec));
    }
    Result<MediatorTranslation> survivors_only = rebuilt->Translate(q);
    ASSERT_TRUE(survivors_only.ok());
    EXPECT_EQ(ToParseableText(got->filter),
              ToParseableText(survivors_only->filter));
  }
  EXPECT_EQ(service->resilience()->counters().partial_results, 1u);
}

TEST(ResilientService, AllSourcesDownFailsWithUnavailable) {
  FaultInjector injector(7);
  for (int m = 0; m < kNumSources; ++m) {
    injector.FailNext("S" + std::to_string(m), 1000);
  }
  ManualClock clock;
  ResilienceOptions resilience;
  resilience.retry.max_attempts = 2;
  auto service = MakeResilientService(&injector, &clock, resilience);
  Result<MediatorTranslation> got = service->Translate(Q("[a0 = 1]"));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(got.status().ToString().find("0 of 4"), std::string::npos)
      << got.status().ToString();
}

TEST(ResilientService, MinSourcesGateRejectsTooThinAnswers) {
  FaultInjector injector(7);
  injector.FailNext("S1", 1000);
  injector.FailNext("S2", 1000);
  ManualClock clock;
  ResilienceOptions resilience;
  resilience.retry.max_attempts = 1;
  resilience.min_sources = 3;  // 2 survivors is not enough
  auto service = MakeResilientService(&injector, &clock, resilience);
  Result<MediatorTranslation> got = service->Translate(Q("[a0 = 1]"));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(got.status().ToString().find("2 of 4"), std::string::npos);
}

TEST(ResilientService, RetriesReachTheScoreboardOnEveryPath) {
  // One retried transient failure must show on the source's /statusz row
  // whether the call came in through the per-source RPC entry or through
  // the full fan-out.
  const Query q = Q("[a0 = 1] and [a1 = 2]");
  const auto retries_of = [](const TranslationService& service,
                             const std::string& name) -> uint64_t {
    for (const SourceStatus& source : service.StatusSnapshot().sources) {
      if (source.name == name) return source.retries;
    }
    ADD_FAILURE() << "no status row for " << name;
    return 0;
  };
  {
    FaultInjector injector(7);
    injector.FailNext("S1", 1, Status::Unavailable("injected fault"));
    ManualClock clock;
    auto service = MakeResilientService(&injector, &clock);
    Result<Translation> got = service->TranslateSource("S1", q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(retries_of(*service, "S1"), 1u);
    EXPECT_EQ(retries_of(*service, "S0"), 0u);
  }
  {
    FaultInjector injector(7);
    injector.FailNext("S1", 1, Status::Unavailable("injected fault"));
    ManualClock clock;
    auto service = MakeResilientService(&injector, &clock);
    Result<MediatorTranslation> got = service->Translate(q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->stats.retries, 1u);
    EXPECT_EQ(retries_of(*service, "S1"), 1u);
    EXPECT_EQ(retries_of(*service, "S0"), 0u);
  }
}

TEST(ResilientService, StalledSourceHitsItsDeadlineWithoutRealSleeps) {
  FaultInjector injector(7);
  injector.StallNext("S0", 1, /*stall_us=*/10000);
  ManualClock clock;
  ResilienceOptions resilience;
  resilience.source_deadline_us = 5000;  // the stall blows the budget
  resilience.retry.max_attempts = 3;
  auto service = MakeResilientService(&injector, &clock, resilience);
  Result<MediatorTranslation> got = service->Translate(Q("[a0 = 1] and [a1 = 2]"));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->partial.failed.size(), 1u);
  EXPECT_EQ(got->partial.failed[0].source, "S0");
  EXPECT_EQ(got->partial.failed[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(got->stats.deadline_hits, 1u);
  // The virtual clock advanced by exactly the injected stall; real time: ~0.
  EXPECT_EQ(clock.NowUs(), 10000u);
}

TEST(ResilientService, BatchBudgetPropagatesAcrossQueries) {
  FaultInjector injector(7);
  // First query: S0 answers late (within budget), S1 stalls past the
  // request deadline — later sources then find the budget exhausted.
  injector.StallNext("S0", 1, 6000);
  injector.StallNext("S1", 1, 6000);
  ManualClock clock;
  ResilienceOptions resilience;
  resilience.request_deadline_us = 10000;
  resilience.retry.max_attempts = 1;
  auto service = MakeResilientService(&injector, &clock, resilience);

  std::vector<Query> batch = {Q("[a0 = 1] and [a1 = 2]"), Q("[a2 = 3]")};
  Result<std::vector<MediatorTranslation>> got = service->TranslateBatch(batch);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(got.status().ToString().find("batch budget exhausted after 1 of 2"),
            std::string::npos)
      << got.status().ToString();
  // The first query itself survived as a partial: S0 answered, the rest hit
  // the shared deadline. That is visible via the resilience counters.
  EXPECT_GE(service->resilience()->counters().deadline_hits, 1u);
  EXPECT_EQ(service->resilience()->counters().partial_results, 1u);
}

TEST(ResilientService, BreakerOpensThenRecoversThroughHalfOpen) {
  FaultInjector injector(7);
  injector.FailNext("S0", 1000);
  ManualClock clock;
  ResilienceOptions resilience;
  resilience.retry.max_attempts = 1;  // one outcome per query, no retries
  resilience.breaker.window = 4;
  resilience.breaker.min_samples = 4;
  resilience.breaker.open_threshold = 1.0;
  resilience.breaker.cooldown_us = 1000;
  resilience.breaker.half_open_probes = 1;
  auto service = MakeResilientService(&injector, &clock, resilience);

  // Four failing queries fill the window and trip the breaker.
  for (int i = 0; i < 4; ++i) {
    Result<MediatorTranslation> got =
        service->Translate(Q("[a0 = " + std::to_string(i) + "]"));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->partial.failed[0].status.code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(service->resilience()->breaker_state("S0"),
            CircuitBreaker::State::kOpen);

  // While open, S0 is rejected without consuming any scripted faults.
  const uint64_t faults_before = injector.faults_injected();
  Result<MediatorTranslation> rejected = service->Translate(Q("[a0 = 9]"));
  ASSERT_TRUE(rejected.ok());
  ASSERT_EQ(rejected->partial.failed.size(), 1u);
  EXPECT_EQ(rejected->partial.failed[0].attempts, 0u);  // no attempt made
  EXPECT_EQ(injector.faults_injected(), faults_before);
  EXPECT_EQ(rejected->stats.breaker_rejections, 1u);

  // After the cooldown the next call is a half-open probe; the source has
  // recovered (script dropped), so the probe succeeds and closes the breaker.
  injector.Reset();
  clock.Advance(1500);
  Result<MediatorTranslation> probe = service->Translate(Q("[a0 = 7]"));
  ASSERT_TRUE(probe.ok());
  EXPECT_TRUE(probe->partial.complete());
  EXPECT_EQ(service->resilience()->breaker_state("S0"),
            CircuitBreaker::State::kClosed);
  ResilienceCounters counters = service->resilience()->counters();
  EXPECT_EQ(counters.breaker_opened, 1u);
  EXPECT_EQ(counters.breaker_half_opened, 1u);
  EXPECT_EQ(counters.breaker_closed, 1u);
  EXPECT_GE(counters.breaker_rejections, 1u);
}

TEST(ResilientService, DegradedTranslationIsNeverCached) {
  Query q = Q("[a0 = 1] and [a1 = 2] and [a2 = 3]");
  auto reference = MakeResilientService(nullptr, nullptr, {}, 1,
                                        /*enable_cache=*/true);
  Result<MediatorTranslation> want = reference->Translate(q);
  ASSERT_TRUE(want.ok());

  FaultInjector injector(7);
  injector.DegradeNext("S0", 1);
  ManualClock clock;
  auto service = MakeResilientService(&injector, &clock, {}, 1,
                                      /*enable_cache=*/true);
  Result<MediatorTranslation> degraded = service->Translate(q);
  ASSERT_TRUE(degraded.ok());
  ASSERT_EQ(degraded->partial.degraded, std::vector<std::string>{"S0"});
  EXPECT_EQ(degraded->stats.degraded_sources, 1u);
  // Degradation clears S0's coverage, so F regains everything S0 covered;
  // the widened mapped query still subsumes the reference one (checked
  // exhaustively in subsumption_property_test.cc).
  EXPECT_NE(Render(*degraded), Render(*want));

  // The degraded entry must not have been cached: the next (healthy) call
  // re-translates S0 and matches the reference run byte for byte.
  Result<MediatorTranslation> healthy = service->Translate(q);
  ASSERT_TRUE(healthy.ok());
  EXPECT_TRUE(healthy->partial.complete());
  EXPECT_TRUE(healthy->partial.degraded.empty());
  EXPECT_EQ(Render(*healthy), Render(*want));
}

TEST(ResilientService, CacheKeepsServingWhileEverySourceIsDown) {
  // A RAM-cache hit never reaches its source, so the cache is itself a
  // degradation buffer: with every source failing every attempt, a warmed
  // query still comes back complete without touching the resilience guards.
  Query q = Q("[a0 = 1] and ([a1 = 2] or [a2 = 3])");
  FaultInjector injector(7);
  ManualClock clock;
  ResilienceOptions resilience;
  resilience.retry.max_attempts = 3;
  auto service = MakeResilientService(&injector, &clock, resilience,
                                      /*num_threads=*/4, /*enable_cache=*/true);
  Result<MediatorTranslation> warm = service->Translate(q);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  ASSERT_TRUE(warm->partial.complete());

  for (int m = 0; m < kNumSources; ++m) {
    injector.FailNext("S" + std::to_string(m), 1000);
  }
  const ServiceStatus before = service->StatusSnapshot();
  Result<MediatorTranslation> cached = service->Translate(q);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();
  EXPECT_TRUE(cached->partial.complete());
  EXPECT_EQ(Render(*cached), Render(*warm));
  EXPECT_EQ(cached->stats.cache_hits, static_cast<uint64_t>(kNumSources));
  EXPECT_EQ(cached->stats.retries, 0u);
  EXPECT_EQ(injector.faults_injected(), 0u);
  const ServiceStatus after = service->StatusSnapshot();
  ASSERT_EQ(after.sources.size(), before.sources.size());
  for (size_t i = 0; i < after.sources.size(); ++i) {
    EXPECT_EQ(after.sources[i].calls, before.sources[i].calls)
        << after.sources[i].name;
    EXPECT_EQ(after.sources[i].retries, 0u) << after.sources[i].name;
  }
  EXPECT_EQ(service->resilience()->counters().retries, 0u);

  // The sources really are down: a query the cache has not seen fails.
  Result<MediatorTranslation> novel = service->Translate(Q("[a0 = 2]"));
  ASSERT_FALSE(novel.ok());
  EXPECT_EQ(novel.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(injector.faults_injected(), 0u);
}

TEST(ResilientService, PartialResultsAreCapturedInTheSlowQueryLog) {
  FaultInjector injector(7);
  injector.FailNext("S2", 1000);
  ManualClock clock;
  MetricsRegistry metrics;
  ResilienceOptions resilience;
  resilience.retry.max_attempts = 1;
  ServiceOptions options;
  options.num_threads = 1;
  options.enable_cache = false;
  options.resilience = resilience;
  options.resilience.enabled = true;
  options.fault_injector = &injector;
  options.clock = &clock;
  options.obs.metrics = &metrics;
  options.obs.slow_query.enabled = true;
  // Latency alone would never capture anything in this test...
  options.obs.slow_query.latency_threshold_us = 1u << 30;
  auto service = std::make_unique<TranslationService>(options);
  SyntheticFederationOptions fed;
  fed.num_members = kNumSources;
  for (int m = 0; m < kNumSources; ++m) {
    Result<MappingSpec> spec = MakeSyntheticSpec(SyntheticMemberOptions(fed, m));
    ASSERT_TRUE(spec.ok());
    service->AddSource("S" + std::to_string(m), *std::move(spec));
  }
  ASSERT_TRUE(service->Translate(Q("[a0 = 1]")).ok());
  // ...but capture_partial logs the dropped source anyway.
  std::vector<SlowQueryRecord> log = service->slow_queries();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_NE(log[0].partial_summary.find("S2"), std::string::npos);
  EXPECT_NE(log[0].partial_summary.find("Unavailable"), std::string::npos);
  // And the qmap_resilience_* metrics saw the failure.
  EXPECT_EQ(metrics.counter("qmap_resilience_source_failures_total").value(),
            1u);
  EXPECT_EQ(metrics.counter("qmap_resilience_partial_results_total").value(),
            1u);
}

TEST(ResilientService, ParallelFanOutMatchesSerialUnderFaults) {
  // Same scripted faults, 1 worker vs 4 workers: identical partial results
  // and identical surviving translations (the deterministic-join contract
  // extends to failure handling).
  auto run = [](int num_threads) {
    FaultInjector injector(7);
    injector.FailNext("S1", 1000);
    injector.DegradeNext("S3", 1000);
    ManualClock clock;
    ResilienceOptions resilience;
    resilience.retry.max_attempts = 2;
    auto service = MakeResilientService(&injector, &clock, resilience,
                                        num_threads);
    std::string out;
    for (int i = 0; i < 6; ++i) {
      Result<MediatorTranslation> got = service->Translate(
          Q("[a0 = " + std::to_string(i) + "] and ([a1 = 1] or [a2 = 2])"));
      EXPECT_TRUE(got.ok());
      if (!got.ok()) continue;
      out += got->partial.ToString() + "\n" + Render(*got);
    }
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

// The cancellation/lifetime regression: a deadline that expires mid-fan-out
// must not leave pool workers writing into the caller's dead stack frame.
// The caller always waits on the latch; workers observe the token and bail
// fast. Run a burst of expiring requests under ASan/TSan to catch any
// use-after-scope or data race in the join.
TEST(ResilientService, ExpiredDeadlineMidFanOutIsMemorySafe) {
  FaultInjector injector(7);
  // Every source stalls, so with a request budget the later sources of each
  // fan-out find the deadline already blown while the earlier ones run.
  for (int m = 0; m < kNumSources; ++m) {
    injector.SetStallRate("S" + std::to_string(m), 0.7, /*stall_us=*/4000);
  }
  ManualClock clock;
  ResilienceOptions resilience;
  resilience.request_deadline_us = 6000;
  resilience.retry.max_attempts = 2;
  auto service = MakeResilientService(&injector, &clock, resilience,
                                      /*num_threads=*/4);
  int complete = 0, partial = 0, failed = 0;
  for (int i = 0; i < 40; ++i) {
    Result<MediatorTranslation> got = service->Translate(
        Q("[a0 = " + std::to_string(i % 4) + "] and [a1 = " +
          std::to_string(i % 3) + "]"));
    if (!got.ok()) {
      // Too few survivors: the whole call degrades to Unavailable.
      EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
      ++failed;
    } else if (got->partial.complete()) {
      ++complete;
    } else {
      for (const SourceFailure& f : got->partial.failed) {
        EXPECT_TRUE(IsSourceDropFailure(f.status.code()));
      }
      ++partial;
    }
  }
  // The mix depends on the seeded stall pattern, but the hammer must have
  // exercised the expiry path at least once.
  EXPECT_GT(partial + failed, 0);
  EXPECT_GT(service->resilience()->counters().deadline_hits, 0u);
}

// ---------------------------------------------------------------------------
// Federation (union integration)

TEST(ResilientFederation, DroppedMemberYieldsUnionOfSurvivors) {
  SyntheticFederationOptions fed;
  fed.num_members = 3;
  fed.tuples_per_member = 24;
  Result<FederatedCatalog> reference = MakeSyntheticFederation(fed);
  ASSERT_TRUE(reference.ok());
  Result<FederatedCatalog> faulty = MakeSyntheticFederation(fed);
  ASSERT_TRUE(faulty.ok());
  FaultInjector injector(7);
  injector.FailNext("S1", 1000);
  ManualClock clock;
  ResilienceOptions resilience;
  resilience.retry.max_attempts = 2;
  resilience.enabled = true;
  faulty->SetResilience(resilience, &clock, &injector);

  Query q = Q("[a0 = 1] or ([a1 = 2] and [a2 = 3])");
  Result<FederatedCatalog::FederatedResult> want = reference->Query(q);
  Result<FederatedCatalog::FederatedResult> got = faulty->Query(q);
  ASSERT_TRUE(want.ok() && got.ok());
  ASSERT_EQ(got->partial.failed.size(), 1u);
  EXPECT_EQ(got->partial.failed[0].source, "S1");

  // The partial union is exactly the no-fault union minus S1's contribution.
  TupleSet expected;
  for (const auto& member : want->per_member) {
    if (member.name != "S1") expected = Union(expected, member.tuples);
  }
  auto render = [](const TupleSet& tuples) {
    std::vector<std::string> rows;
    rows.reserve(tuples.size());
    for (const Tuple& t : tuples) rows.push_back(t.ToString());
    std::sort(rows.begin(), rows.end());
    std::string out;
    for (const std::string& row : rows) out += row + "\n";
    return out;
  };
  EXPECT_EQ(render(got->combined), render(expected));
}

TEST(ResilientFederation, ConversionFaultDropsTheMember) {
  SyntheticFederationOptions fed;
  fed.num_members = 3;
  Result<FederatedCatalog> catalog = MakeSyntheticFederation(fed);
  ASSERT_TRUE(catalog.ok());
  FaultInjector injector(7);
  // The translation succeeds; the *data conversion* path is what fails.
  injector.FailNext("S0.convert", 1);
  ManualClock clock;
  ResilienceOptions resilience;
  resilience.enabled = true;
  catalog->SetResilience(resilience, &clock, &injector);

  Result<FederatedCatalog::FederatedResult> got = catalog->Query(Q("[a0 = 1]"));
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->partial.failed.size(), 1u);
  EXPECT_EQ(got->partial.failed[0].source, "S0");
  EXPECT_EQ(got->per_member.size(), 2u);

  // The scripted conversion fault is one-shot: the next query is complete.
  Result<FederatedCatalog::FederatedResult> next = catalog->Query(Q("[a0 = 2]"));
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(next->partial.complete());
}

TEST(ResilientFederation, DegradedMemberStillAnswersExactly) {
  // Union integration with a degraded member: the widened pushed query
  // over-fetches at the member, but F_i filters the excess — the member's
  // contribution (and so the union) is unchanged.
  SyntheticFederationOptions fed;
  fed.num_members = 3;
  fed.tuples_per_member = 24;
  Result<FederatedCatalog> reference = MakeSyntheticFederation(fed);
  Result<FederatedCatalog> faulty = MakeSyntheticFederation(fed);
  ASSERT_TRUE(reference.ok() && faulty.ok());
  FaultInjector injector(7);
  injector.DegradeNext("S0", 1000);
  ManualClock clock;
  ResilienceOptions resilience;
  resilience.enabled = true;
  faulty->SetResilience(resilience, &clock, &injector);

  Query q = Q("[a0 = 1] and ([a1 = 2] or [a2 = 0])");
  Result<FederatedCatalog::FederatedResult> want = reference->Query(q);
  Result<FederatedCatalog::FederatedResult> got = faulty->Query(q);
  ASSERT_TRUE(want.ok() && got.ok());
  EXPECT_EQ(got->partial.degraded, std::vector<std::string>{"S0"});
  ASSERT_EQ(got->per_member.size(), want->per_member.size());
  for (size_t i = 0; i < got->per_member.size(); ++i) {
    // Same final tuples per member; the degraded member fetched at least as
    // many raw hits as the exact run before filtering.
    EXPECT_EQ(got->per_member[i].tuples.size(), want->per_member[i].tuples.size());
    EXPECT_GE(got->per_member[i].raw_hits, want->per_member[i].raw_hits);
  }
}

// ---------------------------------------------------------------------------
// Mediator (join integration)

TEST(ResilientMediator, PartialTranslationIsReportedButNotExecutable) {
  Mediator reference = MakeFacultyMediator();
  Mediator mediator = MakeFacultyMediator();
  ASSERT_GE(mediator.sources().size(), 2u);
  const std::string victim = mediator.sources()[0].name();
  FaultInjector injector(7);
  injector.FailNext(victim, 1000);
  ManualClock clock;
  ResilienceOptions resilience;
  resilience.enabled = true;
  resilience.retry.max_attempts = 2;
  mediator.SetResilience(resilience, &clock, &injector);

  Query q = Q("[fac.ln = \"Ullman\"]");
  Result<MediatorTranslation> got = mediator.Translate(q);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->partial.failed.size(), 1u);
  EXPECT_EQ(got->partial.failed[0].source, victim);
  EXPECT_EQ(got->stats.retries, 1u);

  // Surviving sources translate exactly as in the no-fault run.
  Result<MediatorTranslation> want = reference.Translate(q);
  ASSERT_TRUE(want.ok());
  for (const auto& [name, translation] : got->per_source) {
    EXPECT_EQ(ToParseableText(translation.mapped),
              ToParseableText(want->per_source.at(name).mapped));
  }

  // But the join pipeline crosses *every* source (Eq. 2): a partial
  // translation has no sound execution and is rejected explicitly.
  Result<TupleSet> executed = mediator.ExecuteTranslated(*got);
  ASSERT_FALSE(executed.ok());
  EXPECT_EQ(executed.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(executed.status().ToString().find("partial translation"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// One partial-result policy, three callers

constexpr int kGatherSources = 3;

// One synthetic federation built three ways — a FederatedCatalog (union), a
// Mediator (join), and a TranslationService registered from that Mediator —
// each with its own identically scripted injector and clock. All three
// route every source outcome through the same gather, so they must make the
// same drop / gate / fail decisions.
struct ThreeCallers {
  FaultInjector catalog_faults{7};
  FaultInjector mediator_faults{7};
  FaultInjector service_faults{7};
  ManualClock catalog_clock;
  ManualClock mediator_clock;
  ManualClock service_clock;
  FederatedCatalog catalog;
  Mediator mediator;
  std::unique_ptr<TranslationService> service;
};

std::unique_ptr<ThreeCallers> MakeThreeCallers(
    const std::function<void(FaultInjector&)>& script,
    ResilienceOptions resilience = {}) {
  auto callers = std::make_unique<ThreeCallers>();
  script(callers->catalog_faults);
  script(callers->mediator_faults);
  script(callers->service_faults);
  resilience.enabled = true;
  resilience.retry.max_attempts = 2;

  SyntheticFederationOptions fed;
  fed.num_members = kGatherSources;
  Result<FederatedCatalog> catalog = MakeSyntheticFederation(fed);
  EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
  if (catalog.ok()) callers->catalog = *std::move(catalog);
  callers->catalog.SetResilience(resilience, &callers->catalog_clock,
                                 &callers->catalog_faults);

  for (int m = 0; m < kGatherSources; ++m) {
    Result<MappingSpec> spec = MakeSyntheticSpec(SyntheticMemberOptions(fed, m));
    EXPECT_TRUE(spec.ok()) << spec.status().ToString();
    callers->mediator.AddSource(
        SourceContext("S" + std::to_string(m), *std::move(spec)));
  }
  callers->mediator.SetResilience(resilience, &callers->mediator_clock,
                                  &callers->mediator_faults);

  ServiceOptions options;
  options.num_threads = 1;
  options.enable_cache = false;
  options.resilience = resilience;
  options.fault_injector = &callers->service_faults;
  options.clock = &callers->service_clock;
  callers->service = std::make_unique<TranslationService>(options);
  callers->service->AddSourcesFrom(callers->mediator);
  return callers;
}

std::vector<std::string> FailedNames(const PartialResult& partial) {
  std::vector<std::string> names;
  for (const SourceFailure& failure : partial.failed) {
    names.push_back(failure.source);
  }
  return names;
}

TEST(ResilientGather, DroppedSourcesAreReportedAlikeByAllThreeCallers) {
  const Query q = Q("([a0 = 1] or [a1 = 2]) and [a2 = 3] and [a3 = 0]");
  const std::vector<std::vector<std::string>> victim_sets = {{"S1"},
                                                            {"S0", "S2"}};
  for (const std::vector<std::string>& victims : victim_sets) {
    SCOPED_TRACE("victims: " + std::to_string(victims.size()));
    auto callers = MakeThreeCallers([&](FaultInjector& faults) {
      for (const std::string& victim : victims) faults.FailNext(victim, 1000);
    });
    Result<FederatedCatalog::FederatedResult> federated =
        callers->catalog.Query(q);
    Result<MediatorTranslation> mediated = callers->mediator.Translate(q);
    Result<MediatorTranslation> served = callers->service->Translate(q);
    ASSERT_TRUE(federated.ok()) << federated.status().ToString();
    ASSERT_TRUE(mediated.ok()) << mediated.status().ToString();
    ASSERT_TRUE(served.ok()) << served.status().ToString();

    EXPECT_EQ(FailedNames(federated->partial), victims);
    EXPECT_EQ(FailedNames(mediated->partial), victims);
    EXPECT_EQ(FailedNames(served->partial), victims);
    for (const SourceFailure& failure : mediated->partial.failed) {
      EXPECT_EQ(failure.status.code(), StatusCode::kUnavailable);
    }
    // Same survivors, same per-source translations, same F over them.
    EXPECT_EQ(Render(*mediated), Render(*served));
    EXPECT_EQ(federated->per_member.size(),
              static_cast<size_t>(kGatherSources) - victims.size());

    EXPECT_EQ(callers->catalog.resilience()->counters().partial_results, 1u);
    EXPECT_EQ(callers->mediator.resilience()->counters().partial_results, 1u);
    EXPECT_EQ(callers->service->resilience()->counters().partial_results, 1u);
  }
}

TEST(ResilientGather, MinSourcesGateFailsAllThreeCallers) {
  ResilienceOptions resilience;
  resilience.min_sources = kGatherSources;  // any drop is too many
  auto callers = MakeThreeCallers(
      [](FaultInjector& faults) { faults.FailNext("S1", 1000); }, resilience);
  const Query q = Q("[a0 = 1] and [a2 = 3]");
  const Status statuses[] = {callers->catalog.Query(q).status(),
                             callers->mediator.Translate(q).status(),
                             callers->service->Translate(q).status()};
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
    EXPECT_NE(status.ToString().find("2 of 3"), std::string::npos)
        << status.ToString();
  }
  EXPECT_EQ(callers->mediator.resilience()->counters().partial_results, 0u);
}

TEST(ResilientGather, PermanentFailureFailsAllThreeCallers) {
  // A broken source is not droppable: serving a silently thinner federation
  // would hide it.
  auto callers = MakeThreeCallers([](FaultInjector& faults) {
    faults.FailNext("S1", 1000, Status::InvalidArgument("broken spec"));
  });
  const Query q = Q("[a0 = 1] and [a2 = 3]");
  const Status statuses[] = {callers->catalog.Query(q).status(),
                             callers->mediator.Translate(q).status(),
                             callers->service->Translate(q).status()};
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  }
}

// ---------------------------------------------------------------------------
// ThreadPool additions

TEST(ThreadPoolResilience, QueueDepthDrainsToZero) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  std::latch done(32);
  for (int i = 0; i < 32; ++i) {
    pool.Submit([&] {
      ran.fetch_add(1);
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(ran.load(), 32);
  // All tasks were picked up; any still-running task is not in the queue.
  // (Point-in-time read: by the time the latch released, submission ended.)
  for (int spin = 0; spin < 1000 && pool.queue_depth() != 0; ++spin) {
  }
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(Status, ResilienceCodesRoundTrip) {
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_NE(Status::Unavailable("x").ToString().find("Unavailable"),
            std::string::npos);
  EXPECT_NE(Status::DeadlineExceeded("x").ToString().find("DeadlineExceeded"),
            std::string::npos);
  EXPECT_NE(Status::Cancelled("x").ToString().find("Cancelled"),
            std::string::npos);
  EXPECT_TRUE(IsRetryable(StatusCode::kUnavailable));
  EXPECT_FALSE(IsRetryable(StatusCode::kDeadlineExceeded));
  EXPECT_FALSE(IsRetryable(StatusCode::kInvalidArgument));
  EXPECT_TRUE(IsSourceDropFailure(StatusCode::kCancelled));
  EXPECT_FALSE(IsSourceDropFailure(StatusCode::kNotFound));
}

}  // namespace
}  // namespace qmap
