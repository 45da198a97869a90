#ifndef QMAP_SERVICE_TRANSLATION_SERVICE_H_
#define QMAP_SERVICE_TRANSLATION_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "qmap/mediator/mediator.h"
#include "qmap/obs/admin_http.h"
#include "qmap/rules/compose.h"
#include "qmap/rules/containment.h"
#include "qmap/obs/trace_ring.h"
#include "qmap/service/resilience.h"
#include "qmap/service/source_transport.h"
#include "qmap/service/thread_pool.h"
#include "qmap/service/translation_cache.h"
#include "qmap/store/translation_store.h"

namespace qmap {

class Counter;
class Histogram;
class MetricsRegistry;
class Trace;

/// When to capture a query into the service's slow-query log (see
/// docs/OBSERVABILITY.md). A query is "slow" when its wall time reaches
/// `latency_threshold_us`, or when any source's translation produced at
/// least `disjunct_threshold` DNF disjuncts — the paper's 2^n blowup
/// (Section 8) shows up as disjunct count before it shows up as latency
/// on small inputs, so both axes are worth watching.
struct SlowQueryLogOptions {
  bool enabled = false;
  /// Wall-time threshold in microseconds; 0 logs every query.
  uint64_t latency_threshold_us = 1000;
  /// Per-source DNF disjunct threshold; 0 ignores disjunct counts.
  uint64_t disjunct_threshold = 0;
  /// Ring-buffer size: only the most recent `capacity` slow queries are
  /// kept (the qmap_slow_queries_total counter keeps the lifetime count).
  size_t capacity = 32;
  /// Also capture every query that came back partial or degraded (see
  /// MediatorTranslation::partial), regardless of latency — a dropped
  /// source is worth a log entry even when the survivors answered fast.
  bool capture_partial = true;
};

/// Observability wiring for the service. All of it defaults to off, in
/// which case the service adds no clock reads or locking to the
/// translation path.
struct ObsOptions {
  /// When set, the service registers and updates counters/histograms here
  /// (qmap_translate_total, qmap_translate_latency_us, qmap_cache_*_total,
  /// qmap_pool_*_us, qmap_slow_queries_total, the rule-matching counters
  /// qmap_match_pattern_attempts_total / qmap_match_index_hits_total /
  /// qmap_match_attempts_saved_total, and the per-stage
  /// qmap_stage_{cache_lookup,source,translate,join,filter}_us, fed from
  /// clock reads on every call, traced or not). A registry alone records no
  /// trace. Must outlive the service.
  MetricsRegistry* metrics = nullptr;
  SlowQueryLogOptions slow_query;
  /// Sampled trace retention (see qmap/obs/trace_ring.h): every Nth query
  /// is traced and kept in a bounded ring, latency outliers (the slow-query
  /// criteria) are always kept, and the latency histogram's buckets remember
  /// the retained traces as exemplars. Off by default; when enabled the
  /// admin server's /tracez serves the ring.
  TraceRingOptions trace_ring;
};

/// One captured slow query (see SlowQueryLogOptions).
struct SlowQueryRecord {
  /// The normalized printed form of the full query (view constraints
  /// conjoined), rendered lazily for the log — the translation path itself
  /// keys caches by Query::fingerprint() and never prints.
  std::string query_text;
  uint64_t total_us = 0;
  /// Max dnf_disjuncts over the per-source translations.
  uint64_t max_disjuncts = 0;
  /// TranslationStats::ToString() of the aggregated stats.
  std::string stats;
  /// PartialResult::ToString() when the query came back partial or
  /// degraded; empty for complete answers.
  std::string partial_summary;
  /// Trace::ToJson() of the per-query trace (per-source spans, pool waits,
  /// cache lookups). Present even when the caller did not pass a Trace:
  /// the service records an internal trace whenever the slow-query log is
  /// enabled.
  std::string trace_json;
};

struct ServiceOptions {
  /// Options forwarded to every per-source Translator.
  TranslatorOptions translator;
  /// Worker threads for the per-source fan-out. 1 (or less) runs every
  /// translation inline on the calling thread — the serial reference path.
  int num_threads = 4;
  /// Shared translation cache across all queries and sources; disable to
  /// force a fresh translation on every call (e.g. for benchmarking the
  /// mapping algorithms themselves).
  bool enable_cache = true;
  TranslationCacheOptions cache;
  /// Metrics and slow-query-log wiring; off by default.
  ObsOptions obs;
  /// Graceful-degradation policy (retry/backoff, circuit breaking, deadline
  /// budgets, partial results); off by default. See docs/ROBUSTNESS.md.
  ResilienceOptions resilience;
  /// Persistent translation store under the RAM cache (qmap/store): misses
  /// fall through to disk, completed translations are persisted, and on the
  /// first Translate the store's live entries for the registered sources are
  /// replayed into the RAM cache so a restarted service comes back warm.
  /// Permanent per-source failures are persisted as negative records;
  /// transient ones never are. Disabled when store.path is empty (the
  /// default) or when enable_cache is false. An Open failure (corrupt
  /// directory, permissions) degrades to cache-only operation rather than
  /// failing construction; see store_open_status().
  StoreOptions store;
  /// Optional deterministic fault injector for tests/benchmarks; keys are
  /// source names. Setting it activates the resilience layer even when
  /// resilience.enabled is false (faults must pass through the guards to be
  /// observed). Must outlive the service.
  FaultInjector* fault_injector = nullptr;
  /// Clock for deadlines/backoff/stalls; null uses the system clock. Tests
  /// pass a ManualClock so stall and timeout scenarios never really sleep.
  ResilienceClock* clock = nullptr;
  /// When set, every AddSource/AddChain runs the containment pre-pass
  /// (PruneContainedSources): a source whose mapping is provably contained
  /// in another registered source's mapping is dropped from the fan-out.
  /// Sound for union-replica catalogs (the merged result and residue filter
  /// are recomputed from the survivors); leave off when sources hold
  /// disjoint data you want per-source translations for.
  bool prune_contained_sources = false;
  /// Knobs forwarded to ComposeSpecs by AddChain.
  ComposeOptions compose;
};

/// Aggregate service counters (monotonic over the service lifetime).
struct ServiceStats {
  TranslationCacheStats cache;
  /// Persistent-tier counters; all zero when no store is configured.
  StoreStats store;
  uint64_t translate_calls = 0;
  uint64_t batch_calls = 0;
  uint64_t batch_queries = 0;     // queries received across all batches
  uint64_t batch_duplicates = 0;  // batch queries answered by intra-batch dedup
  // Units of work run on the pool / on the calling thread by Translate and
  // TranslateBatch. A unit is one local source's cache miss, or all of one
  // remote group's misses (one wire call). Cache hits are answered on the
  // calling thread and count in neither; they show in cache.hits.
  uint64_t parallel_tasks = 0;
  uint64_t inline_tasks = 0;
  uint64_t slow_queries = 0;      // queries captured by the slow-query log
};

/// Per-source operational state for the admin plane's /statusz scoreboard.
struct SourceStatus {
  std::string name;
  /// Where the source's translation runs: "local" or the remote worker's
  /// "host:port" (SourceTransport::endpoint()).
  std::string endpoint;
  CircuitBreaker::State breaker = CircuitBreaker::State::kClosed;
  uint64_t in_flight = 0;  // guarded calls currently running
  uint64_t calls = 0;      // per-source translations attempted (cache misses)
  uint64_t failures = 0;   // attempts that returned a non-ok status
  uint64_t retries = 0;    // resilience-layer retries spent on this source
};

/// One registered multi-hop chain (AddChain): its topology and the offline
/// composition's outcome, for /statusz and StatusSnapshot().
struct ChainStatus {
  std::string name;                    // the registered source name
  std::vector<std::string> hop_targets;  // target vocab of each hop, in order
  int composed_rules = 0;
  int approximate_marks = 0;
  /// True when every fold was proven evaluation-equivalent to sequential
  /// hop-by-hop translation (ComposedSpec::exact for all folds).
  bool exact = true;
};

/// One source dropped by the containment pre-pass, for /statusz.
struct PrunedSourceStatus {
  std::string name;
  std::string subsumed_by;
};

/// One coherent status snapshot of the whole service, for /varz, /readyz
/// and /statusz. `ready` is the load-balancer signal: the configured store
/// opened cleanly (or none is configured) and the boot-replay warm-up has
/// run (or is not configured).
struct ServiceStatus {
  bool ready = false;
  bool store_configured = false;
  bool store_ok = false;   // true when no store is configured
  bool warmed_up = false;  // boot replay completed (false when not configured)
  /// Active rule-matching engine (MatchEngineName of CurrentMatchEngine):
  /// "naive" or "compiled".
  std::string match_engine;
  /// BeginDrain() was called (also forces ready=false): the process is
  /// shutting down and wants traffic steered away.
  bool draining = false;
  ServiceStats stats;
  size_t cache_entries = 0;
  size_t pool_threads = 0;      // 0 = inline (serial) mode
  size_t pool_queue_depth = 0;
  std::vector<SourceStatus> sources;
  bool resilience_enabled = false;
  ResilienceCounters resilience;
  bool trace_ring_enabled = false;
  TraceRingStats trace_ring;
  std::vector<ChainStatus> chains;
  std::vector<PrunedSourceStatus> pruned_sources;
};

/// Configuration for the service's admin/introspection HTTP server.
struct AdminOptions {
  AdminHttpOptions http;
  /// Invoked when /drainz is hit, after the service has marked itself
  /// draining (readiness already reads "not ready"). The embedding process
  /// hooks its own shutdown here — a wire front-end stops accepting, an
  /// embedding binary arranges its exit.
  std::function<void()> on_drain;
  /// Additional handlers registered verbatim on the admin server, path →
  /// handler. Lets embedding processes (the federation worker/front-end
  /// binaries) expose their own endpoints on the service's admin port.
  std::vector<std::pair<std::string, AdminHandler>> extra_handlers;
};

/// One row of SourceCatalog(): what a worker advertises so a front-end can
/// mint cache keys whose rule-set-version third matches the worker's.
struct SourceCatalogEntry {
  std::string name;
  uint64_t rule_set_fp = 0;
};

/// A reusable, thread-safe translation service over a fixed federation: the
/// mediation pipeline's S_i(Q) fan-out (Section 2, Eq. 3) run concurrently
/// per source, with completed Translations memoized in a sharded LRU cache.
///
/// Results are deterministic: sources are kept sorted by name, and the
/// coverage merge / residue-filter construction always runs in that order,
/// so a Translate with N worker threads returns exactly what the 1-thread
/// (inline) configuration returns — and what Mediator::Translate returns
/// for the same federation — modulo the observability-only `stats` fields.
///
/// Threading contract: AddSource / AddSourcesFrom / SetViewConstraints are
/// setup-phase only (not thread-safe against concurrent Translate calls).
/// Once set up, Translate and TranslateBatch may be called from any number
/// of threads: per-source MappingSpecs are strictly read-only during
/// translation (see MappingSpec's class comment).
class TranslationService {
 public:
  explicit TranslationService(ServiceOptions options = {});

  /// Detaches the cache's and the store's metrics from the registry, so
  /// neither outlives it.
  ~TranslationService();

  /// Registers one source's mapping specification under `name` (unique per
  /// service; also part of the cache key). The no-capabilities overload
  /// registers an empty capability set.
  void AddSource(std::string name, MappingSpec spec);
  void AddSource(std::string name, MappingSpec spec,
                 const SourceCapabilities& capabilities);

  /// Registers a source whose translation runs behind `transport` (e.g. a
  /// RemoteTransport to a shard worker). `rule_set_fp` is the worker's
  /// advertised fingerprint for this source (see SourceCatalog) — using the
  /// worker's value keeps the front-end's cache/store keys aligned with the
  /// worker's, so both tiers invalidate together when the rules change.
  /// The transport must be thread-safe: the fan-out calls it concurrently.
  /// Sources whose transports share calls (SourceTransport::SharesCallWith,
  /// e.g. remote sources on one worker) form one group: a request's misses
  /// in a group are one unit of work, translated by one TranslateMany call.
  void AddRemoteSource(std::string name, uint64_t rule_set_fp,
                       std::shared_ptr<SourceTransport> transport);

  /// Copies every source spec, its declared capabilities, and the view
  /// constraints out of `mediator`, so the service translates exactly as
  /// the mediator does.
  void AddSourcesFrom(const Mediator& mediator);

  /// Registers a multi-hop mediation chain as a single source: folds the
  /// hop specs left-to-right through ComposeSpecs (hops[0] maps the
  /// mediator vocabulary to the first intermediate, hops.back() maps the
  /// last intermediate to the source), then AddSource's the composed spec
  /// under `name`. The no-capabilities overload derives capabilities from
  /// the composed spec (RequiredCapabilities), so every composed emission
  /// is realizable. Composition happens offline, once, at registration —
  /// the per-query path sees an ordinary one-hop source. The chain's
  /// topology and composition outcome are recorded (see chains() and
  /// /statusz), and when the trace ring is enabled the offline compose
  /// trace is retained as an outlier so operators can inspect it.
  /// Setup-phase only. Fails if `hops` is empty or a fold fails.
  Status AddChain(std::string name, const std::vector<MappingSpec>& hops);
  Status AddChain(std::string name, const std::vector<MappingSpec>& hops,
                  const SourceCapabilities& capabilities);

  /// Runs the containment pre-pass over the registered local-spec sources:
  /// a source whose mapping is provably contained in another's
  /// (Contains == kContains) is removed from the fan-out and recorded in
  /// pruned_sources(). Conservative — kUnknown never prunes. Sound for
  /// union-replica catalogs because the merged result and residue filter
  /// are recomputed from the survivors (a subsumed source can only
  /// contribute translations the subsuming source also answers). Remote
  /// sources (no local spec) are never pruned. Invoked automatically after
  /// each AddSource/AddChain when options.prune_contained_sources is set;
  /// callable explicitly for one-shot setup-phase pruning. Returns the
  /// number of sources pruned by this call.
  size_t PruneContainedSources();

  /// The chains registered via AddChain, in registration order.
  const std::vector<ChainStatus>& chains() const { return chains_; }

  /// Sources dropped by the containment pre-pass, in prune order.
  const std::vector<PrunedSourceStatus>& pruned_sources() const {
    return pruned_;
  }

  /// What this service advertises to front-ends: every registered source
  /// and its rule-set fingerprint, in sources_ (name) order.
  std::vector<SourceCatalogEntry> SourceCatalog() const;

  /// Worker-side entry for one wire frame: translates `full` for each named
  /// source through the normal cache → store → guarded-translate path and
  /// returns one result per name, in order (NotFound for an unknown name).
  /// Cache hits are answered on the calling thread; with two or more
  /// misses, the calling thread translates one and the pool the rest.
  /// `full` must already be the complete query — the wire contract is that
  /// the front-end conjoins its view constraints before sending, so this
  /// does NOT conjoin this service's own view constraints (a worker serving
  /// a federation keeps them empty). `deadline_ms` bounds the whole call
  /// (0 = no deadline beyond the service's own request deadline).
  std::vector<Result<Translation>> TranslateSources(
      std::span<const std::string_view> names, const Query& full,
      uint32_t deadline_ms = 0) const;

  /// TranslateSources in two halves, split after the RAM-cache probe, so a
  /// wire server can answer an all-hit frame on its event-loop thread and
  /// hand only the rest to its pool. TranslateSources is the store warm-up,
  /// then FinishSources(ProbeSources(...)).
  struct SourceProbe {
    /// Per source, in sources_ order: the cache's answer, if it had one.
    std::vector<std::optional<Result<Translation>>> outcomes;
    /// Per listed name: its source's index, or num_sources() for an unknown
    /// name (answered NotFound).
    std::vector<size_t> listed;
    /// The distinct listed sources the cache did not answer.
    std::vector<size_t> misses;
  };

  /// Resolves each name and probes each distinct listed source's RAM cache
  /// once. Runs nothing else: no store lookup, warm-up, resilience guard or
  /// translation, so any thread may call it.
  SourceProbe ProbeSources(std::span<const std::string_view> names,
                           const Query& full) const;

  /// Everything after the probe, for the same `names` and `full`: with no
  /// misses, only the assembly of one result per name; otherwise the store
  /// warm-up, the store tier and the translation of each miss (the calling
  /// thread one, the pool the rest) under `deadline_ms`.
  std::vector<Result<Translation>> FinishSources(
      SourceProbe probe, std::span<const std::string_view> names,
      const Query& full, uint32_t deadline_ms = 0) const;

  /// The one-source case of TranslateSources.
  Result<Translation> TranslateSource(std::string_view name, const Query& full,
                                      uint32_t deadline_ms = 0) const;

  /// Marks the service draining: /readyz flips to 503 and StatusSnapshot()
  /// reports draining, so load balancers steer new traffic away while
  /// in-flight work completes. Idempotent; there is no un-drain.
  void BeginDrain() { draining_.store(true, std::memory_order_relaxed); }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// See Mediator::SetViewConstraints. Invalidates cached entries (the
  /// constraints are conjoined into the query, hence into the cache key).
  void SetViewConstraints(Query constraints);

  size_t num_sources() const { return sources_.size(); }

  /// Translates `query` for every source: Eq. 3's S_1(Q) ... S_n(Q) plus
  /// the merged residue filter F. Cache-first: every source's RAM-cache
  /// probe runs on the calling thread, and only the misses are translated.
  /// Each local miss is one unit of work, and so are all of one remote
  /// group's misses (see AddRemoteSource); units run on the pool when one
  /// is configured and there are two or more, inline otherwise. An all-hit
  /// call never touches the pool. The returned
  /// translation's `stats` aggregates per-source counters plus the service's
  /// cache/parallelism counters for this call.
  ///
  /// When `trace` is non-null the whole call is recorded into it: a
  /// service.translate root span with one cache.lookup span per source
  /// under it, then, for each unit of work only, a source.translate span
  /// (with a pool.wait span when the unit ran on the pool, inside one
  /// fanout.wait) and the full per-source algorithm spans underneath (tdqm,
  /// psafe, ednf.safety, scm, disjunctivize — or one rpc.translate per wire
  /// call; see docs/OBSERVABILITY.md).
  Result<MediatorTranslation> Translate(const Query& query,
                                        Trace* trace = nullptr) const;

  /// Translates a batch, deduplicating structurally identical normalized
  /// queries within the batch (fingerprint probe, StructurallyEquals
  /// confirm): duplicates are translated once and the result replicated.
  /// Output order matches input order. The first failing query's status
  /// fails the whole batch.
  Result<std::vector<MediatorTranslation>> TranslateBatch(
      std::span<const Query> queries) const;

  ServiceStats stats() const;

  /// Snapshot of the slow-query ring buffer, oldest first. Empty unless
  /// options.obs.slow_query.enabled.
  std::vector<SlowQueryRecord> slow_queries() const;

  /// The resilience layer, or null when neither options.resilience.enabled
  /// nor options.fault_injector was set. Exposes counters, breaker state
  /// and the clock for tests and operators.
  ResilienceManager* resilience() const { return resilience_.get(); }

  /// The persistent tier, or null when options.store.path was empty /
  /// enable_cache was off / the store failed to open.
  TranslationStore* store() const { return store_.get(); }

  /// Ok unless a configured store failed to open (the service then runs
  /// cache-only; the error is kept here for operators).
  const Status& store_open_status() const { return store_open_status_; }

  /// The trace-retention ring, or null when options.obs.trace_ring.enabled
  /// was off. See /tracez and docs/OBSERVABILITY.md.
  TraceRing* trace_ring() const { return trace_ring_.get(); }

  /// One coherent snapshot of the service's operational state (readiness,
  /// per-source scoreboard, cache/store/pool/resilience/trace-ring
  /// counters). This is what the admin endpoints serve; also useful
  /// directly in tests and embedding processes.
  ServiceStatus StatusSnapshot() const;

  /// Refreshes the point-in-time gauges (pool queue depth, cache entries,
  /// store live records, intern-table sizes, per-source breaker state) in the
  /// attached registry, and raises the process-wide intern and parse-memo
  /// counters (qmap_intern_*_total, qmap_parse_memo_*_total) to the current
  /// QueryInternStats(). The admin handlers call it just before exporting,
  /// so scrapes always see current values without the translation path
  /// paying for them; a process that exports the registry itself calls it
  /// first. No-op without a registry.
  void UpdateGauges() const;

  /// Starts the admin/introspection HTTP server (see qmap/obs/admin_http.h)
  /// with handlers for /healthz, /readyz, /varz, /metrics, /statusz,
  /// /tracez and /slowlogz. Runs the store warm-up first so readiness is
  /// meaningful the moment the port is open. Fails if already started or
  /// the port cannot be bound. The server is stopped by StopAdmin() or the
  /// service destructor.
  Status StartAdmin(const AdminOptions& options = {});

  /// Stops the admin server if running. Idempotent.
  void StopAdmin();

  /// The running admin server (for its port and stats), or null.
  AdminHttpServer* admin_server() const { return admin_.get(); }

 private:
  /// Shared body of the two AddChain overloads; `capabilities` null means
  /// "derive from the composed spec".
  Status AddChainImpl(std::string name, const std::vector<MappingSpec>& hops,
                      const SourceCapabilities* capabilities);

  /// Per-source operational counters, updated lock-free on the translation
  /// path and snapshotted by StatusSnapshot(). Heap-allocated per entry so
  /// SourceEntry stays movable (atomics are not).
  struct SourceRuntime {
    std::atomic<uint64_t> in_flight{0};
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> retries{0};

    /// Brackets one guarded call of the source, retries and backoff
    /// included. Only real source work counts: cache and store hits never
    /// get here.
    void BeginCall() {
      calls.fetch_add(1, std::memory_order_relaxed);
      in_flight.fetch_add(1, std::memory_order_relaxed);
    }
    void EndCall(bool ok, uint32_t call_retries) {
      in_flight.fetch_sub(1, std::memory_order_relaxed);
      if (!ok) failures.fetch_add(1, std::memory_order_relaxed);
      if (call_retries > 0) {
        retries.fetch_add(call_retries, std::memory_order_relaxed);
      }
    }
  };

  struct SourceEntry {
    std::string name;
    /// Where this source's translation runs: InProcessTransport for
    /// AddSource'd specs, RemoteTransport (or any custom impl) for
    /// AddRemoteSource. Never null once registered.
    std::shared_ptr<SourceTransport> transport;
    std::unique_ptr<SourceRuntime> runtime;
    /// Context third of the typed cache key: one FNV-64 over the source
    /// name and the translator options tag (see docs/ALGORITHMS.md for the
    /// scheme). The query third is Query::fingerprint().
    uint64_t cache_key_prefix = 0;
    /// Rule-set-version third: the spec fingerprint mixed with the declared
    /// capability fingerprint. Changing either changes this value, making
    /// every cache/store entry minted under the old mapping unreachable.
    uint64_t rule_set_fp = 0;
  };

  /// Shared tail of AddSource/AddRemoteSource: mints the entry's cache-key
  /// prefix, inserts it in name order, and regroups the units.
  void InsertSource(SourceEntry entry);

  /// Recomputes units_ from sources_ (setup-phase only).
  void RebuildUnits();

  /// The typed cache key of `full` for `source` (see TranslationCacheKey).
  static TranslationCacheKey CacheKey(const SourceEntry& source,
                                      const Query& full) {
    return {source.cache_key_prefix, source.rule_set_fp, full.fingerprint()};
  }

  /// The RAM-cache probe, run on the calling thread: the cached translation
  /// with stats reset to {cache_hits: 1}, or nullopt on a miss or with the
  /// cache disabled. Records one cache.lookup span (attrs source, hit) under
  /// `parent_span`. A hit never reaches the store tier, the resilience
  /// guards, fault injection or the deadline check.
  std::optional<Translation> LookupCached(const SourceEntry& source,
                                          const Query& full, Trace* trace,
                                          uint64_t parent_span) const;

  /// Everything after the RAM probe, for the members of one unit of work
  /// (a source on its own, or a group of sources that share calls) that
  /// the cache did not answer (`missed`, indices into sources_): the store
  /// tier, then one call, under the resilience guards when enabled, for
  /// the members the store did not answer — one member calls its
  /// transport's Translate, two or more one TranslateMany — then the fills
  /// of both tiers. Degraded
  /// translations are never cached — a cached entry must be the exact
  /// mapping, not a widened one. An eviction caused by a member's RAM fill
  /// shows in its result's stats.cache_evictions. Writes outcomes[i] for
  /// every member i, and reports[i] for every member the guards ran.
  void TranslateUnit(std::span<const size_t> missed, const Query& full,
                     Trace* trace, uint64_t parent_span,
                     const CancelToken* cancel,
                     std::span<std::optional<Result<Translation>>> outcomes,
                     std::span<ResilienceManager::CallReport> reports) const;

  /// The store tier after a RAM miss: the stored translation (promoted into
  /// the RAM cache) or stored negative result, else nullopt. The cache must
  /// be enabled.
  std::optional<Result<Translation>> LookupStored(
      const TranslationCacheKey& key, Trace* trace,
      uint64_t parent_span) const;

  /// Fills both tiers with a freshly translated outcome — a permanent
  /// failure as a store negative, a non-degraded translation in both — and
  /// stamps its per-call cache counters. The cache must be enabled.
  void FillTiers(const TranslationCacheKey& key,
                 Result<Translation>& translation, bool degraded, Trace* trace,
                 uint64_t parent_span) const;

  /// The cache-first fan-out + deterministic join for one full query (view
  /// constraints already conjoined): every source's RAM probe runs on the
  /// calling thread, then two or more units of work go to the pool and a
  /// single unit runs inline.
  ///
  /// Cancellation/lifetime contract: workers write into stack-allocated
  /// per-request state, so this function ALWAYS waits for every dispatched
  /// task — even when `cancel` has already expired. Workers poll the token
  /// and bail out fast instead of being abandoned (see docs/ROBUSTNESS.md).
  Result<MediatorTranslation> TranslateFull(const Query& full, Trace* trace,
                                            const CancelToken* cancel) const;

  /// TranslateFull plus the observability envelope: wall-clock timing, the
  /// latency histogram, folding trace spans into per-phase metrics, and
  /// slow-query capture (which renders the query text lazily). Creates an
  /// internal Trace when the caller passed none but metrics or the
  /// slow-query log need one.
  Result<MediatorTranslation> TranslateObserved(
      const Query& full, Trace* trace, const CancelToken* cancel) const;

  /// The request-level cancel token (ResilienceManager::MakeRequestToken),
  /// or null when resilience is off.
  const CancelToken* MakeRequestToken(CancelToken* storage) const {
    return resilience_ != nullptr ? resilience_->MakeRequestToken(storage)
                                  : nullptr;
  }

  /// Raises qmap_match_compile_ns / qmap_match_plan_nodes to the
  /// process-wide plan-compile totals (CompiledPlanGlobalStats). No-op
  /// without a registry.
  void BridgeCompileStats() const;

  /// Registers the /healthz .. /drainz handlers on `server`, plus
  /// `options.extra_handlers`.
  void RegisterAdminHandlers(AdminHttpServer* server,
                             const AdminOptions& options);

  /// One-time warm-up replay of the store into the RAM cache: runs on the
  /// first Translate, after setup, so every registered source's
  /// (context, rule-set) pair is known. Only entries matching a currently
  /// registered pair are replayed — entries from removed sources or old
  /// rule-set versions stay on disk for compaction to reclaim.
  void WarmUpFromStoreOnce() const;

  ServiceOptions options_;
  std::vector<SourceEntry> sources_;  // sorted by name
  /// The units of work of a request, as ascending indices into sources_: a
  /// group of remote sources that share calls, or one source on its own.
  /// Worked out at registration (RebuildUnits), not per request.
  std::vector<std::vector<size_t>> units_;
  // Chain registrations (AddChain) and containment-pruned sources, both
  // setup-phase state snapshotted by StatusSnapshot().
  std::vector<ChainStatus> chains_;
  std::vector<PrunedSourceStatus> pruned_;
  Query view_constraints_ = Query::True();
  std::unique_ptr<ThreadPool> pool_;  // null when num_threads <= 1
  // Non-null when options_.resilience.enabled or a fault injector is set.
  std::unique_ptr<ResilienceManager> resilience_;
  mutable TranslationCache cache_;
  // Non-null when options_.store.path is set, the cache is enabled, and the
  // store opened cleanly.
  std::unique_ptr<TranslationStore> store_;
  Status store_open_status_;
  // Non-null when options_.obs.trace_ring.enabled.
  std::unique_ptr<TraceRing> trace_ring_;
  // Non-null between StartAdmin() and StopAdmin()/destruction.
  std::unique_ptr<AdminHttpServer> admin_;
  mutable std::once_flag warmup_once_;
  mutable std::atomic<bool> warmed_up_{false};
  std::atomic<bool> draining_{false};
  mutable std::atomic<uint64_t> translate_calls_{0};
  mutable std::atomic<uint64_t> batch_calls_{0};
  mutable std::atomic<uint64_t> batch_queries_{0};
  mutable std::atomic<uint64_t> batch_duplicates_{0};
  mutable std::atomic<uint64_t> parallel_tasks_{0};
  mutable std::atomic<uint64_t> inline_tasks_{0};
  mutable std::atomic<uint64_t> slow_queries_{0};

  // Slow-query ring buffer (guarded by slow_mu_), newest at the back.
  mutable std::mutex slow_mu_;
  mutable std::deque<SlowQueryRecord> slow_log_;

  // Cached metric handles (see ObsOptions::metrics); null when detached.
  Counter* translate_counter_ = nullptr;
  Counter* slow_counter_ = nullptr;
  Histogram* latency_hist_ = nullptr;
  // qmap_stage_<stage>_us, one per stage of TranslateFull.
  Histogram* stage_cache_lookup_hist_ = nullptr;
  Histogram* stage_source_hist_ = nullptr;
  Histogram* stage_translate_hist_ = nullptr;
  Histogram* stage_join_hist_ = nullptr;
  Histogram* stage_filter_hist_ = nullptr;
  Counter* match_attempts_counter_ = nullptr;
  Counter* match_index_hits_counter_ = nullptr;
  Counter* match_saved_counter_ = nullptr;
  Counter* match_compiled_hits_counter_ = nullptr;
  Counter* match_compile_ns_counter_ = nullptr;
  Counter* match_plan_nodes_counter_ = nullptr;
  Counter* compose_chains_counter_ = nullptr;
  Counter* compose_rules_counter_ = nullptr;
  Counter* compose_skipped_counter_ = nullptr;
  Counter* containment_checks_counter_ = nullptr;
  Counter* containment_pruned_counter_ = nullptr;
};

}  // namespace qmap

#endif  // QMAP_SERVICE_TRANSLATION_SERVICE_H_
