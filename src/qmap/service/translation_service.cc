#include "qmap/service/translation_service.h"

#include <algorithm>
#include <chrono>
#include <latch>
#include <unordered_map>
#include <utility>

#include "qmap/common/fnv.h"
#include "qmap/expr/printer.h"
#include "qmap/obs/metrics.h"
#include "qmap/obs/trace.h"
#include "qmap/service/partial_result.h"

namespace qmap {
namespace {

std::string OptionsTag(const TranslatorOptions& options) {
  std::string tag;
  switch (options.algorithm) {
    case MappingAlgorithm::kTdqm:
      tag = "tdqm";
      break;
    case MappingAlgorithm::kDnf:
      tag = "dnf";
      break;
    case MappingAlgorithm::kNaive:
      tag = "naive";
      break;
  }
  tag += options.reuse_potential_matchings ? "+reuse" : "-reuse";
  tag += options.simplify_output ? "+simp" : "-simp";
  return tag;
}

// Separator between cache-key fields (the fields are hashed, but keeping a
// separator byte in the stream prevents boundary ambiguity between the
// source name and the options tag).
constexpr char kKeySep = '\x1f';

// Failures worth a negative store record: permanent properties of (query,
// rule set) that will recur identically until the rules change. Transient
// resilience-category failures (unavailable, deadline, cancelled, internal)
// must never be persisted — the next attempt may succeed.
bool IsPermanentFailure(StatusCode code) {
  switch (code) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kUnsupported:
    case StatusCode::kParseError:
      return true;
    default:
      return false;
  }
}

/// The members of `unit` (indices into `outcomes`) with no outcome yet:
/// `unit` itself when none has one, else a copy of the rest kept in
/// `storage`, so a unit whose members all missed costs no allocation.
std::span<const size_t> Unanswered(
    std::span<const size_t> unit,
    std::span<const std::optional<Result<Translation>>> outcomes,
    std::vector<size_t>& storage) {
  const auto answered = [&](size_t i) { return outcomes[i].has_value(); };
  if (std::none_of(unit.begin(), unit.end(), answered)) return unit;
  for (size_t i : unit) {
    if (!answered(i)) storage.push_back(i);
  }
  return storage;
}

// Times one stage of a request into its qmap_stage_<stage>_us histogram:
// two clock reads and one Record, or a null check when no registry is
// attached. Records on Stop() or, at the latest, on destruction.
class StageTimer {
 public:
  explicit StageTimer(Histogram* hist) : hist_(hist) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~StageTimer() { Stop(); }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  void Stop() {
    if (hist_ == nullptr) return;
    hist_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
    hist_ = nullptr;
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

TranslationService::TranslationService(ServiceOptions options)
    : options_(options), cache_(options.cache) {
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  if (options_.resilience.enabled || options_.fault_injector != nullptr) {
    resilience_ = std::make_unique<ResilienceManager>(
        options_.resilience, options_.clock, options_.fault_injector,
        options_.obs.metrics);
  }
  if (options_.enable_cache && !options_.store.path.empty()) {
    auto store = TranslationStore::Open(options_.store);
    if (store.ok()) {
      store_ = std::move(store).value();
    } else {
      // Cache-only degradation: a service that cannot reach its disk tier
      // still translates correctly, just without restart warmth.
      store_open_status_ = store.status();
    }
  }
  if (options_.obs.trace_ring.enabled) {
    trace_ring_ = std::make_unique<TraceRing>(options_.obs.trace_ring);
  }
  if (options_.obs.metrics != nullptr) {
    MetricsRegistry* metrics = options_.obs.metrics;
    cache_.AttachMetrics(metrics);
    if (store_ != nullptr) store_->AttachMetrics(metrics);
    if (pool_ != nullptr) pool_->AttachMetrics(metrics);
    translate_counter_ = &metrics->counter(
        "qmap_translate_total", "Translate calls received by the service.");
    slow_counter_ = &metrics->counter(
        "qmap_slow_queries_total",
        "Queries captured by the slow-query log (lifetime, not ring size).");
    latency_hist_ = &metrics->histogram(
        "qmap_translate_latency_us",
        "End-to-end Translate wall time in microseconds.");
    stage_cache_lookup_hist_ = &metrics->histogram(
        "qmap_stage_cache_lookup_us",
        "One Translate call's RAM-cache probes of every source, in "
        "microseconds.");
    stage_source_hist_ = &metrics->histogram(
        "qmap_stage_source_us",
        "One unit of work of a Translate call (a local miss, or one remote "
        "group's misses), store tier and retries included, in microseconds.");
    stage_translate_hist_ = &metrics->histogram(
        "qmap_stage_translate_us",
        "One local source's translation (Translator::Translate), in "
        "microseconds.");
    stage_join_hist_ = &metrics->histogram(
        "qmap_stage_join_us",
        "One Translate call's gather of every source's outcome, in "
        "microseconds.");
    stage_filter_hist_ = &metrics->histogram(
        "qmap_stage_filter_us",
        "One Translate call's merged residue filter (the gather's Finish), "
        "in microseconds.");
    match_attempts_counter_ =
        &metrics->counter("qmap_match_pattern_attempts_total");
    match_index_hits_counter_ = &metrics->counter("qmap_match_index_hits_total");
    match_saved_counter_ = &metrics->counter("qmap_match_attempts_saved_total");
    match_compiled_hits_counter_ = &metrics->counter(
        "qmap_match_compiled_hits",
        "Conjunctions answered by the compiled discrimination-DAG engine.");
    match_compile_ns_counter_ = &metrics->counter(
        "qmap_match_compile_ns",
        "Wall time spent compiling rule plans, process-wide (CompileRulePlan).");
    match_plan_nodes_counter_ = &metrics->counter(
        "qmap_match_plan_nodes",
        "DAG nodes across all rule plans compiled so far, process-wide.");
    compose_chains_counter_ = &metrics->counter(
        "qmap_compose_chains_total",
        "Multi-hop chains registered via AddChain (offline composition).");
    compose_rules_counter_ = &metrics->counter(
        "qmap_compose_rules_total",
        "Rules in composed chain specs at registration (sum over chains).");
    compose_skipped_counter_ = &metrics->counter(
        "qmap_compose_skipped_covers_total",
        "Rule covers the composer skipped conservatively while folding chains.");
    containment_checks_counter_ = &metrics->counter(
        "qmap_containment_checks_total",
        "Pairwise spec containment checks run by the pruning pre-pass.");
    containment_pruned_counter_ = &metrics->counter(
        "qmap_containment_pruned_total",
        "Sources dropped from the fan-out because another source's mapping "
        "provably contains theirs.");
  }
}

TranslationService::~TranslationService() {
  // Admin handlers capture `this`; stop serving before anything else of the
  // service is torn down.
  StopAdmin();
  if (options_.obs.metrics != nullptr) {
    cache_.DetachMetricsIf(options_.obs.metrics);
    if (store_ != nullptr) store_->DetachMetricsIf(options_.obs.metrics);
  }
}

void TranslationService::AddSource(std::string name, MappingSpec spec) {
  AddSource(std::move(name), std::move(spec), SourceCapabilities());
}

void TranslationService::AddSource(std::string name, MappingSpec spec,
                                   const SourceCapabilities& capabilities) {
  SourceEntry entry;
  // The rule-set-version third: what the source *is*, separated from what
  // it is *called*. Cached entries — RAM and disk — minted under a
  // different rule set or capability declaration differ here and become
  // unreachable, which is the staleness guarantee the persistent store
  // relies on (DESIGN.md §10).
  entry.rule_set_fp = Fnv64()
                          .AddU64(spec.fingerprint())
                          .AddByte(kKeySep)
                          .AddU64(capabilities.Fingerprint())
                          .value();
  entry.name = std::move(name);
  entry.transport = std::make_shared<InProcessTransport>(
      Translator(std::move(spec), options_.translator));
  InsertSource(std::move(entry));
  if (options_.prune_contained_sources) PruneContainedSources();
}

void TranslationService::AddRemoteSource(
    std::string name, uint64_t rule_set_fp,
    std::shared_ptr<SourceTransport> transport) {
  SourceEntry entry;
  // The rule-set-version third is the *worker's* advertised fingerprint:
  // both tiers must go stale together when the worker's rules change.
  entry.rule_set_fp = rule_set_fp;
  entry.name = std::move(name);
  entry.transport = std::move(transport);
  InsertSource(std::move(entry));
}

void TranslationService::InsertSource(SourceEntry entry) {
  // The context third of the typed cache key: source name plus the option
  // flags that change translation output, local to this process even for a
  // remote source. The query third comes per-call from Query::fingerprint().
  entry.cache_key_prefix = Fnv64()
                               .Add(entry.name)
                               .AddByte(kKeySep)
                               .Add(OptionsTag(options_.translator))
                               .value();
  entry.runtime = std::make_unique<SourceRuntime>();
  auto pos = std::lower_bound(
      sources_.begin(), sources_.end(), entry,
      [](const SourceEntry& a, const SourceEntry& b) { return a.name < b.name; });
  sources_.insert(pos, std::move(entry));
  RebuildUnits();
}

void TranslationService::RebuildUnits() {
  units_.clear();
  for (size_t i = 0; i < sources_.size(); ++i) {
    const SourceTransport& transport = *sources_[i].transport;
    auto unit = std::find_if(
        units_.begin(), units_.end(), [&](const std::vector<size_t>& u) {
          return sources_[u.front()].transport->SharesCallWith(transport);
        });
    if (unit != units_.end()) {
      unit->push_back(i);
    } else {
      units_.push_back({i});
    }
  }
}

std::vector<SourceCatalogEntry> TranslationService::SourceCatalog() const {
  std::vector<SourceCatalogEntry> out;
  out.reserve(sources_.size());
  for (const SourceEntry& source : sources_) {
    out.push_back(SourceCatalogEntry{source.name, source.rule_set_fp});
  }
  return out;
}

void TranslationService::AddSourcesFrom(const Mediator& mediator) {
  for (const SourceContext& source : mediator.sources()) {
    AddSource(source.name(), source.spec(), source.capabilities());
  }
  SetViewConstraints(mediator.view_constraints());
}

Status TranslationService::AddChain(std::string name,
                                    const std::vector<MappingSpec>& hops) {
  return AddChainImpl(std::move(name), hops, nullptr);
}

Status TranslationService::AddChain(std::string name,
                                    const std::vector<MappingSpec>& hops,
                                    const SourceCapabilities& capabilities) {
  return AddChainImpl(std::move(name), hops, &capabilities);
}

Status TranslationService::AddChainImpl(std::string name,
                                        const std::vector<MappingSpec>& hops,
                                        const SourceCapabilities* capabilities) {
  if (hops.empty()) {
    return Status::InvalidArgument("AddChain('" + name +
                                   "'): at least one hop required");
  }
  ChainStatus chain;
  chain.name = name;
  for (const MappingSpec& hop : hops) chain.hop_targets.push_back(hop.target_name());

  // Fold left-to-right: after iteration i, `composed` maps the mediator
  // vocabulary directly onto hops[i]'s target vocabulary. Registration is
  // off the hot path, so the compose trace is always recorded; when the
  // trace ring is on it is retained as an outlier for /tracez.
  Trace trace("chain:" + name, /*capture_detail=*/true);
  MappingSpec composed = hops.front();
  ComposeStats total;
  bool exact = true;
  {
    Span root(&trace, "chain.compose");
    root.AddAttr("chain", name);
    for (size_t i = 1; i < hops.size(); ++i) {
      auto folded =
          ComposeSpecs(composed, hops[i], options_.compose, &trace, root.id());
      if (!folded.ok()) return folded.status();
      composed = std::move(folded.value().spec);
      exact = exact && folded.value().exact;
      total.skipped_covers += folded.value().stats.skipped_covers;
      total.approximate_marks += folded.value().stats.approximate_marks;
    }
    root.AddAttr("hops", std::to_string(hops.size()));
    root.AddAttr("composed_rules", std::to_string(composed.rules().size()));
    root.AddAttr("exact", exact ? "true" : "false");
  }
  if (trace_ring_ != nullptr) {
    trace_ring_->Insert(trace.ToParsed(), /*outlier=*/true);
  }

  chain.composed_rules = static_cast<int>(composed.rules().size());
  chain.approximate_marks = static_cast<int>(total.approximate_marks);
  chain.exact = exact;
  if (compose_chains_counter_ != nullptr) compose_chains_counter_->Inc();
  if (compose_rules_counter_ != nullptr) {
    compose_rules_counter_->Inc(static_cast<uint64_t>(chain.composed_rules));
  }
  if (compose_skipped_counter_ != nullptr) {
    compose_skipped_counter_->Inc(
        static_cast<uint64_t>(total.skipped_covers));
  }

  if (capabilities != nullptr) {
    AddSource(std::move(name), std::move(composed), *capabilities);
  } else {
    // Default capabilities: exactly what the composed emissions can produce,
    // so nothing the chain translates to is unrealizable downstream.
    SourceCapabilities derived = RequiredCapabilities(composed);
    AddSource(std::move(name), std::move(composed), derived);
  }
  chains_.push_back(std::move(chain));
  return Status::Ok();
}

size_t TranslationService::PruneContainedSources() {
  // Only sources with a local spec participate: a remote source's mapping
  // lives on its worker, and pruning it here on a stale idea of that
  // mapping would be unsound.
  std::vector<std::string> names;
  std::vector<const MappingSpec*> specs;
  for (const SourceEntry& source : sources_) {
    const MappingSpec* spec = source.transport->spec();
    if (spec == nullptr) continue;
    names.push_back(source.name);
    specs.push_back(spec);
  }
  ContainmentAnalysis analysis = AnalyzeContainment(names, specs);
  if (containment_checks_counter_ != nullptr) {
    containment_checks_counter_->Inc(analysis.checks);
  }
  size_t removed = 0;
  for (const PrunedSource& pruned : analysis.pruned) {
    auto pos = std::find_if(
        sources_.begin(), sources_.end(),
        [&pruned](const SourceEntry& s) { return s.name == pruned.name; });
    if (pos == sources_.end()) continue;
    sources_.erase(pos);
    pruned_.push_back(PrunedSourceStatus{pruned.name, pruned.subsumed_by});
    ++removed;
  }
  if (removed > 0) RebuildUnits();
  if (containment_pruned_counter_ != nullptr && removed > 0) {
    containment_pruned_counter_->Inc(static_cast<uint64_t>(removed));
  }
  return removed;
}

void TranslationService::SetViewConstraints(Query constraints) {
  view_constraints_ = std::move(constraints);
  cache_.Clear();
}

std::optional<Translation> TranslationService::LookupCached(
    const SourceEntry& source, const Query& full, Trace* trace,
    uint64_t parent_span) const {
  if (!options_.enable_cache) return std::nullopt;
  // A hit never reaches the source, so the resilience guards — and any
  // injected faults — do not apply: the cache is itself a degradation
  // buffer (a source can be down and its cached translations still serve).
  Span lookup(trace, "cache.lookup", parent_span);
  std::optional<Translation> hit = cache_.Get(CacheKey(source, full));
  if (lookup.enabled()) {
    lookup.AddAttr("source", source.name);
    lookup.AddAttr("hit", hit ? "true" : "false");
  }
  if (hit) {
    // Stats describe the work done *for this call*: a hit does no rule
    // matching, so the computation counters reset and only the hit shows.
    hit->stats = TranslationStats{};
    hit->stats.cache_hits = 1;
  }
  return hit;
}

std::optional<Result<Translation>> TranslationService::LookupStored(
    const TranslationCacheKey& key, Trace* trace, uint64_t parent_span) const {
  if (store_ == nullptr) return std::nullopt;
  // RAM miss: fall through to the persistent tier. A disk hit is promoted
  // into the RAM cache so the next lookup stops there.
  Span lookup(trace, "store.lookup", parent_span);
  std::optional<Result<Translation>> stored = store_->Get(key);
  if (lookup.enabled()) lookup.AddAttr("hit", stored ? "true" : "false");
  if (!stored || !stored->ok()) return stored;  // miss, or stored negative
  Translation& hit = **stored;
  hit.stats = TranslationStats{};
  hit.stats.store_hits = 1;
  hit.stats.cache_evictions = cache_.Put(key, hit) ? 1 : 0;
  return stored;
}

void TranslationService::FillTiers(const TranslationCacheKey& key,
                                   Result<Translation>& translation,
                                   bool degraded, Trace* trace,
                                   uint64_t parent_span) const {
  if (!translation.ok()) {
    if (store_ != nullptr && IsPermanentFailure(translation.status().code())) {
      store_->PutNegative(key, translation.status()).ok();
    }
    return;
  }
  if (!degraded) {
    // Degraded (widened) translations are never cached or persisted: a
    // later healthy call must get the exact mapping back, not a poisoned
    // wide one — and a store record outlives the process, so persisting a
    // widened mapping would poison every future boot (docs/ROBUSTNESS.md).
    Span insert(trace, "cache.insert", parent_span);
    const bool evicted = cache_.Put(key, *translation);
    if (store_ != nullptr) store_->Put(key, *translation).ok();
    translation->stats.cache_evictions += evicted ? 1 : 0;
  }
  translation->stats.cache_misses = 1;
}

void TranslationService::TranslateUnit(
    std::span<const size_t> missed, const Query& full, Trace* trace,
    uint64_t parent_span, const CancelToken* cancel,
    std::span<std::optional<Result<Translation>>> outcomes,
    std::span<ResilienceManager::CallReport> reports) const {
  if (options_.enable_cache) {
    for (size_t i : missed) {
      if (std::optional<Result<Translation>> stored =
              LookupStored(CacheKey(sources_[i], full), trace, parent_span)) {
        outcomes[i].emplace(*std::move(stored));
      }
    }
  }
  // Store hits leave the unit; the members left share one call.
  std::vector<size_t> storage;
  const std::span<const size_t> call = Unanswered(missed, outcomes, storage);
  if (call.empty()) return;

  // One call for the listed members (indices into sources_), answered into
  // their outcomes.
  const auto translate = [&](std::span<const size_t> listed) {
    if (listed.size() == 1) {
      const size_t i = listed.front();
      outcomes[i].emplace(
          sources_[i].transport->Translate(full, trace, parent_span, cancel));
      return;
    }
    std::vector<SourceTransport*> transports;
    transports.reserve(listed.size());
    for (size_t i : listed) transports.push_back(sources_[i].transport.get());
    std::vector<Result<Translation>> results =
        transports.front()->TranslateMany(transports, full, trace,
                                          parent_span, cancel);
    results.resize(listed.size(), Status::Internal("transport gave no result"));
    for (size_t k = 0; k < listed.size(); ++k) {
      outcomes[listed[k]].emplace(std::move(results[k]));
    }
  };
  for (size_t i : call) sources_[i].runtime->BeginCall();
  if (resilience_ == nullptr) {
    translate(call);
  } else {
    std::vector<std::string_view> names;
    names.reserve(call.size());
    for (size_t i : call) names.push_back(sources_[i].name);
    std::vector<ResilienceManager::CallReport> call_reports(call.size());
    std::vector<Result<Translation>> results =
        resilience_->GuardedTranslateGroup(
            names, full, cancel,
            [&](std::span<const size_t> pending) {
              // Each round lists only the members still pending (indices
              // into `call`); the guard takes their outcomes back.
              std::vector<size_t> listed;
              listed.reserve(pending.size());
              for (size_t k : pending) listed.push_back(call[k]);
              translate(listed);
              std::vector<Result<Translation>> round;
              round.reserve(listed.size());
              for (size_t i : listed) {
                round.push_back(*std::move(outcomes[i]));
                outcomes[i].reset();
              }
              return round;
            },
            call_reports, trace, parent_span);
    for (size_t k = 0; k < call.size(); ++k) {
      reports[call[k]] = call_reports[k];
      outcomes[call[k]].emplace(std::move(results[k]));
    }
  }
  for (size_t i : call) {
    Result<Translation>& result = *outcomes[i];
    sources_[i].runtime->EndCall(result.ok(), reports[i].retries);
    if (options_.enable_cache) {
      FillTiers(CacheKey(sources_[i], full), result, reports[i].degraded, trace,
                parent_span);
    }
  }
}

Result<MediatorTranslation> TranslationService::TranslateFull(
    const Query& full, Trace* trace, const CancelToken* cancel) const {
  Span root(trace, "service.translate", 0);
  // Rendering is deferred to this detail-only path; the translation and
  // cache machinery below works purely on fingerprints.
  if (root.detail()) root.AddAttr("query", ToParseableText(full));
  const uint64_t root_id = root.id();
  const size_t n = sources_.size();
  std::vector<std::optional<Result<Translation>>> outcomes(n);
  std::vector<ResilienceManager::CallReport> reports(n);
  // Cache-first: each S_i(Q) depends only on Q and source i's rules, so the
  // RAM cache answers a repeated query outright. Probe every source here on
  // the calling thread; only the misses go on to be translated.
  size_t misses = 0;
  {
    StageTimer stage(options_.enable_cache ? stage_cache_lookup_hist_
                                           : nullptr);
    for (size_t i = 0; i < n; ++i) {
      if (std::optional<Translation> hit =
              LookupCached(sources_[i], full, trace, root_id)) {
        outcomes[i].emplace(*std::move(hit));
      } else {
        ++misses;
      }
    }
  }
  // One unit of work, end to end: a local miss, or a remote group's misses.
  // `submit_ns` is the pool submit time, or -1 when the unit runs inline on
  // the calling thread.
  const auto translate_unit = [&](const std::vector<size_t>& unit,
                                  int64_t submit_ns) {
    const int64_t start_ns =
        trace != nullptr && submit_ns >= 0 ? trace->NowNs() : 0;
    std::vector<size_t> storage;
    const std::span<const size_t> missed = Unanswered(unit, outcomes, storage);
    Span source_span(trace, "source.translate", root_id);
    if (source_span.enabled()) {
      std::string names;
      for (size_t i : missed) {
        if (!names.empty()) names += ',';
        names += sources_[i].name;
      }
      source_span.AddAttr("source", std::move(names));
      if (submit_ns >= 0) {
        trace->AddCompleteSpan("pool.wait", root_id, submit_ns, start_ns);
      }
    }
    StageTimer stage(stage_source_hist_);
    TranslateUnit(missed, full, trace, source_span.id(), cancel, outcomes,
                  reports);
    stage.Stop();
    if (stage_translate_hist_ != nullptr) {
      // A local translator timed itself; a store hit never translated.
      for (size_t i : missed) {
        if (sources_[i].transport->spec() == nullptr || !outcomes[i]->ok()) {
          continue;
        }
        const TranslationStats& stats = (*outcomes[i])->stats;
        if (stats.store_hits == 0) {
          stage_translate_hist_->Record(stats.translate_ns / 1000);
        }
      }
    }
    if (source_span.enabled()) {
      // The unit waited once, so its pool wait counts on its first member
      // that answered; its span carries its members' summed stats.
      TranslationStats unit_stats;
      bool waited = submit_ns < 0;
      for (size_t i : missed) {
        if (!outcomes[i]->ok()) continue;
        TranslationStats& stats = (*outcomes[i])->stats;
        if (!waited) {
          stats.queue_wait_ns += static_cast<uint64_t>(start_ns - submit_ns);
          waited = true;
        }
        unit_stats.MergeFrom(stats);
      }
      source_span.SetStats(unit_stats);
    }
  };
  const auto has_miss = [&](const std::vector<size_t>& unit) {
    return std::any_of(unit.begin(), unit.end(), [&](size_t i) {
      return !outcomes[i].has_value();
    });
  };
  size_t tasks = 0;
  if (misses > 0) {
    for (const std::vector<size_t>& unit : units_) {
      tasks += has_miss(unit) ? 1 : 0;
    }
  }
  const bool fan_out = pool_ != nullptr && tasks > 1;
  if (fan_out) {
    parallel_tasks_.fetch_add(tasks, std::memory_order_relaxed);
    // Covers the whole fan-out window on the calling thread: submits, the
    // workers' overlapping spans, and the latch wake-up latency.
    Span fanout_span(trace, "fanout.wait", root_id);
    std::latch done(static_cast<ptrdiff_t>(tasks));
    for (const std::vector<size_t>& unit : units_) {
      // Only this loop reads a unit's outcomes before its task is submitted.
      if (!has_miss(unit)) continue;
      const int64_t submit_ns = trace != nullptr ? trace->NowNs() : 0;
      pool_->Submit([&translate_unit, &done, &unit, submit_ns] {
        // translate_unit ends its spans before returning, and must: once
        // count_down() lets the calling thread return, the trace is gone.
        translate_unit(unit, submit_ns);
        done.count_down();
      });
    }
    // ALWAYS wait, even when `cancel` has expired mid-fan-out: the workers
    // write into this frame's `outcomes`/`reports`, so returning before the
    // latch releases would leave detached tasks scribbling on a dead stack.
    // Expiry makes the workers *finish fast* (the guard checks the token
    // before each attempt), never makes the caller leave early.
    done.wait();
  } else if (tasks > 0) {
    inline_tasks_.fetch_add(tasks, std::memory_order_relaxed);
    for (const std::vector<size_t>& unit : units_) {
      if (has_miss(unit)) translate_unit(unit, -1);
    }
  }

  // Deterministic join: sources_ is sorted by name, and the gather always
  // runs in that order, independent of task completion order.
  Span join_span(trace, "join", root_id);
  StageTimer join_stage(stage_join_hist_);
  PartialResultGather gather(resilience_.get(), n);
  for (size_t i = 0; i < n; ++i) {
    Status failure =
        gather.Add(sources_[i].name, *std::move(outcomes[i]), reports[i]);
    if (!failure.ok()) return failure;
  }
  join_stage.Stop();
  join_span.End();
  StageTimer filter_stage(stage_filter_hist_);
  Result<MediatorTranslation> out = gather.Finish(full, root);
  filter_stage.Stop();
  if (!out.ok()) return out;
  if (fan_out) out->stats.parallel_tasks += tasks;
  if (match_attempts_counter_ != nullptr) {
    match_attempts_counter_->Inc(out->stats.match.pattern_attempts);
    match_index_hits_counter_->Inc(out->stats.match.index_hits);
    match_saved_counter_->Inc(out->stats.match.pattern_attempts_saved);
    match_compiled_hits_counter_->Inc(out->stats.match.compiled_hits);
    BridgeCompileStats();
  }
  root.SetStats(out->stats);
  return out;
}

Result<MediatorTranslation> TranslationService::TranslateObserved(
    const Query& full, Trace* trace, const CancelToken* cancel) const {
  const SlowQueryLogOptions& slow = options_.obs.slow_query;
  // Head-sampling decision up front: the sampler counts every query it sees
  // (sampled or not), and a sampled query gets a trace even when the slow
  // log and metrics are off — the ring is its own consumer.
  const bool sampled = trace_ring_ != nullptr && trace_ring_->ShouldSample();
  const bool want_obs = slow.enabled || latency_hist_ != nullptr || sampled;
  if (!want_obs) return TranslateFull(full, trace, cancel);

  // The slow-query log wants a trace of every query so the slow ones come
  // with their per-source spans attached, and the retention ring stores
  // completed traces; record a trace internally when the caller did not
  // supply one and either consumer is active. Metrics alone need none: the
  // stage histograms are fed from clock reads in TranslateFull.
  std::unique_ptr<Trace> local_trace;
  if (trace == nullptr && (slow.enabled || sampled)) {
    local_trace = std::make_unique<Trace>("service", /*capture_detail=*/false);
    trace = local_trace.get();
  }

  const auto wall_start = std::chrono::steady_clock::now();
  Result<MediatorTranslation> out = TranslateFull(full, trace, cancel);
  const uint64_t total_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());

  // Slow-query classification (ok results only — failures have no
  // per-source stats to inspect).
  uint64_t max_disjuncts = 0;
  bool is_partial = false;
  bool is_slow = false;
  if (out.ok() && slow.enabled) {
    for (const auto& [name, translation] : out->per_source) {
      max_disjuncts = std::max(max_disjuncts, translation.stats.dnf_disjuncts);
    }
    is_partial = !out->partial.complete();
    is_slow = total_us >= slow.latency_threshold_us ||
              (slow.disjunct_threshold > 0 &&
               max_disjuncts >= slow.disjunct_threshold) ||
              (slow.capture_partial && is_partial);
  }

  // Trace retention: head-sampled traces always (even for failed
  // translations — those are the interesting ones); slow outliers go to the
  // guaranteed ring. Retention happens before the latency record below so
  // an exemplar written into a histogram bucket always resolves via
  // /tracez — the ring holds the trace by the time the bucket names it.
  bool retained = false;
  if (trace_ring_ != nullptr && trace != nullptr && (sampled || is_slow)) {
    trace_ring_->Insert(trace->ToParsed(), /*outlier=*/is_slow);
    retained = true;
  }

  if (latency_hist_ != nullptr) {
    if (retained) {
      latency_hist_->RecordWithExemplar(total_us, trace->serial());
    } else {
      latency_hist_->Record(total_us);
    }
  }
  if (!out.ok() || !is_slow) return out;

  slow_queries_.fetch_add(1, std::memory_order_relaxed);
  if (slow_counter_ != nullptr) slow_counter_->Inc();
  SlowQueryRecord record;
  // The only rendering on the slow path — and only for captured queries.
  record.query_text = ToParseableText(full);
  record.total_us = total_us;
  record.max_disjuncts = max_disjuncts;
  record.stats = out->stats.ToString();
  if (is_partial) record.partial_summary = out->partial.ToString();
  if (trace != nullptr) record.trace_json = trace->ToJson();
  {
    std::lock_guard<std::mutex> lock(slow_mu_);
    slow_log_.push_back(std::move(record));
    while (slow_log_.size() > std::max<size_t>(1, slow.capacity)) {
      slow_log_.pop_front();
    }
  }
  return out;
}

void TranslationService::WarmUpFromStoreOnce() const {
  if (store_ == nullptr) return;
  std::call_once(warmup_once_, [this] {
    // Only entries belonging to a registered source under its *current*
    // rule-set fingerprint are replayed; everything else on disk is either
    // another service's data or a stale version, and stays dead.
    std::unordered_map<uint64_t, uint64_t> live;
    for (const SourceEntry& source : sources_) {
      live.emplace(source.cache_key_prefix, source.rule_set_fp);
    }
    store_->ReplayInto(cache_, [&live](const TranslationCacheKey& key) {
      auto it = live.find(key.source);
      return it != live.end() && it->second == key.rule_set;
    });
    warmed_up_.store(true, std::memory_order_release);
  });
}

Result<MediatorTranslation> TranslationService::Translate(const Query& query,
                                                          Trace* trace) const {
  translate_calls_.fetch_add(1, std::memory_order_relaxed);
  if (translate_counter_ != nullptr) translate_counter_->Inc();
  WarmUpFromStoreOnce();
  Query full = query & view_constraints_;
  CancelToken token;
  return TranslateObserved(full, trace, MakeRequestToken(&token));
}

std::vector<Result<Translation>> TranslationService::TranslateSources(
    std::span<const std::string_view> names, const Query& full,
    uint32_t deadline_ms) const {
  WarmUpFromStoreOnce();
  return FinishSources(ProbeSources(names, full), names, full, deadline_ms);
}

TranslationService::SourceProbe TranslationService::ProbeSources(
    std::span<const std::string_view> names, const Query& full) const {
  const size_t n = sources_.size();
  SourceProbe probe;
  probe.outcomes.resize(n);
  probe.listed.assign(names.size(), n);
  for (size_t k = 0; k < names.size(); ++k) {
    auto pos = std::lower_bound(
        sources_.begin(), sources_.end(), names[k],
        [](const SourceEntry& a, std::string_view b) { return a.name < b; });
    if (pos == sources_.end() || pos->name != names[k]) continue;
    const size_t i = static_cast<size_t>(pos - sources_.begin());
    probe.listed[k] = i;
    if (probe.outcomes[i].has_value() ||
        std::find(probe.misses.begin(), probe.misses.end(), i) !=
            probe.misses.end()) {
      continue;  // listed before
    }
    if (std::optional<Translation> hit = LookupCached(
            sources_[i], full, /*trace=*/nullptr, /*parent_span=*/0)) {
      probe.outcomes[i].emplace(*std::move(hit));
    } else {
      probe.misses.push_back(i);
    }
  }
  return probe;
}

std::vector<Result<Translation>> TranslationService::FinishSources(
    SourceProbe probe, std::span<const std::string_view> names,
    const Query& full, uint32_t deadline_ms) const {
  const std::vector<size_t>& misses = probe.misses;
  auto& outcomes = probe.outcomes;
  if (!misses.empty()) {
    WarmUpFromStoreOnce();
    // One budget covers every listed source: the caller's remaining budget
    // narrows the service's own request deadline (if any) — budget
    // propagation across the wire works exactly like propagation down the
    // local call tree.
    CancelToken token;
    const CancelToken* cancel = MakeRequestToken(&token);
    if (deadline_ms > 0) {
      ResilienceClock* clock = options_.clock != nullptr
                                   ? options_.clock
                                   : &DefaultResilienceClock();
      token.budget = token.budget.Narrowed(
          clock->NowUs(), static_cast<uint64_t>(deadline_ms) * 1000);
      cancel = &token;
    }
    std::vector<ResilienceManager::CallReport> reports(sources_.size());
    // Each miss is a local source's unit of work.
    const auto translate = [&](size_t m) {
      TranslateUnit(std::span(&misses[m], 1), full, /*trace=*/nullptr,
                    /*parent_span=*/0, cancel, outcomes, reports);
    };
    if (pool_ != nullptr && misses.size() > 1) {
      // The calling thread translates the first miss itself while the pool
      // takes the rest; it always waits for them, since they write into this
      // frame's `outcomes`.
      std::latch done(static_cast<ptrdiff_t>(misses.size() - 1));
      for (size_t m = 1; m < misses.size(); ++m) {
        pool_->Submit([&translate, &done, m] {
          translate(m);
          done.count_down();
        });
      }
      translate(0);
      done.wait();
    } else {
      for (size_t m = 0; m < misses.size(); ++m) translate(m);
    }
  }

  const size_t n = sources_.size();
  std::vector<Result<Translation>> out;
  out.reserve(names.size());
  for (size_t k = 0; k < names.size(); ++k) {
    const size_t i = probe.listed[k];
    if (i == n) {
      out.push_back(
          Status::NotFound("unknown source: " + std::string(names[k])));
    } else if (std::find(probe.listed.begin() + k + 1, probe.listed.end(),
                         i) == probe.listed.end()) {
      out.push_back(*std::move(outcomes[i]));  // its last listing
    } else {
      out.push_back(*outcomes[i]);  // a source listed twice is answered twice
    }
  }
  return out;
}

Result<Translation> TranslationService::TranslateSource(
    std::string_view name, const Query& full, uint32_t deadline_ms) const {
  return std::move(
      TranslateSources(std::span(&name, 1), full, deadline_ms).front());
}

Result<std::vector<MediatorTranslation>> TranslationService::TranslateBatch(
    std::span<const Query> queries) const {
  batch_calls_.fetch_add(1, std::memory_order_relaxed);
  batch_queries_.fetch_add(queries.size(), std::memory_order_relaxed);
  WarmUpFromStoreOnce();

  // Intra-batch dedup: structurally identical normalized queries translate
  // once. Fingerprints bucket the candidates; StructurallyEquals confirms
  // (pointer comparison when both nodes are interned).
  std::vector<Query> unique_full;
  std::unordered_map<uint64_t, std::vector<size_t>> slots_by_fp;
  std::vector<size_t> slot_of(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    Query full = queries[q] & view_constraints_;
    std::vector<size_t>& bucket = slots_by_fp[full.fingerprint()];
    size_t slot = unique_full.size();
    for (size_t candidate : bucket) {
      if (unique_full[candidate].StructurallyEquals(full)) {
        slot = candidate;
        break;
      }
    }
    if (slot == unique_full.size()) {
      bucket.push_back(slot);
      unique_full.push_back(std::move(full));
    } else {
      batch_duplicates_.fetch_add(1, std::memory_order_relaxed);
    }
    slot_of[q] = slot;
  }

  // One budget for the whole batch: the request deadline covers every query
  // in it, so a stalled early query leaves less (possibly nothing) for the
  // later ones — budget propagation, not per-query reset.
  CancelToken token;
  const CancelToken* cancel = MakeRequestToken(&token);
  std::vector<MediatorTranslation> unique_results;
  unique_results.reserve(unique_full.size());
  for (size_t u = 0; u < unique_full.size(); ++u) {
    if (cancel != nullptr && cancel->Expired(resilience_->clock()->NowUs())) {
      return Status::DeadlineExceeded(
          "batch budget exhausted after " + std::to_string(u) + " of " +
          std::to_string(unique_full.size()) + " unique queries");
    }
    Result<MediatorTranslation> translation =
        TranslateObserved(unique_full[u], nullptr, cancel);
    if (!translation.ok()) return translation.status();
    unique_results.push_back(*std::move(translation));
  }

  std::vector<MediatorTranslation> out;
  out.reserve(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    out.push_back(unique_results[slot_of[q]]);
  }
  return out;
}

ServiceStats TranslationService::stats() const {
  ServiceStats out;
  out.cache = cache_.stats();
  if (store_ != nullptr) out.store = store_->stats();
  out.translate_calls = translate_calls_.load(std::memory_order_relaxed);
  out.batch_calls = batch_calls_.load(std::memory_order_relaxed);
  out.batch_queries = batch_queries_.load(std::memory_order_relaxed);
  out.batch_duplicates = batch_duplicates_.load(std::memory_order_relaxed);
  out.parallel_tasks = parallel_tasks_.load(std::memory_order_relaxed);
  out.inline_tasks = inline_tasks_.load(std::memory_order_relaxed);
  out.slow_queries = slow_queries_.load(std::memory_order_relaxed);
  return out;
}

std::vector<SlowQueryRecord> TranslationService::slow_queries() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return std::vector<SlowQueryRecord>(slow_log_.begin(), slow_log_.end());
}

}  // namespace qmap
