#include "qmap/service/translation_service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <latch>
#include <unordered_map>
#include <utility>

#include "qmap/common/fnv.h"
#include "qmap/common/version.h"
#include "qmap/core/match_memo.h"
#include "qmap/expr/intern.h"
#include "qmap/expr/printer.h"
#include "qmap/obs/json.h"
#include "qmap/obs/metrics.h"
#include "qmap/obs/trace.h"
#include "qmap/rules/matcher.h"
#include "qmap/rules/rule_program.h"

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
    match_attempts_counter_ =
        &metrics->counter("qmap_match_pattern_attempts_total");
    match_index_hits_counter_ = &metrics->counter("qmap_match_index_hits_total");
    match_memo_hits_counter_ = &metrics->counter("qmap_match_memo_hits_total");
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

std::vector<std::unique_ptr<MatchMemo>> TranslationService::MakeMemoScope()
    const {
  std::vector<std::unique_ptr<MatchMemo>> memos;
  if (!options_.translator.use_match_memo) return memos;
  memos.reserve(sources_.size());
  for (const SourceEntry& source : sources_) {
    // Index alignment with sources_ matters; remote sources (no local spec)
    // contribute a null slot rather than being skipped.
    const MappingSpec* spec = source.transport->spec();
    memos.push_back(spec == nullptr
                        ? nullptr
                        : std::make_unique<MatchMemo>(spec,
                                                      /*thread_safe=*/true));
  }
  return memos;
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
    if (store_ != nullptr && options_.store.cache_negatives &&
        IsPermanentFailure(translation.status().code())) {
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
    uint64_t parent_span, const std::vector<std::unique_ptr<MatchMemo>>& memos,
    const CancelToken* cancel,
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
  // their outcomes. Only a source's own Translate can use its match memo.
  const auto translate = [&](std::span<const size_t> listed) {
    if (listed.size() == 1) {
      const size_t i = listed.front();
      outcomes[i].emplace(sources_[i].transport->Translate(
          full, trace, parent_span, memos.empty() ? nullptr : memos[i].get(),
          cancel));
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
    const Query& full, Trace* trace,
    const std::vector<std::unique_ptr<MatchMemo>>& memos,
    const CancelToken* cancel) const {
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
  for (size_t i = 0; i < n; ++i) {
    if (std::optional<Translation> hit =
            LookupCached(sources_[i], full, trace, root_id)) {
      outcomes[i].emplace(*std::move(hit));
    } else {
      ++misses;
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
    TranslateUnit(missed, full, trace, source_span.id(), memos, cancel,
                  outcomes, reports);
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
  PartialResultGather gather(resilience_.get(), n);
  for (size_t i = 0; i < n; ++i) {
    Status failure =
        gather.Add(sources_[i].name, *std::move(outcomes[i]), reports[i]);
    if (!failure.ok()) return failure;
  }
  join_span.End();
  Result<MediatorTranslation> out = gather.Finish(full, root);
  if (!out.ok()) return out;
  if (fan_out) out->stats.parallel_tasks += tasks;
  if (match_attempts_counter_ != nullptr) {
    match_attempts_counter_->Inc(out->stats.match.pattern_attempts);
    match_index_hits_counter_->Inc(out->stats.match.index_hits);
    match_memo_hits_counter_->Inc(out->stats.memo_hits);
    match_saved_counter_->Inc(out->stats.match.pattern_attempts_saved);
    match_compiled_hits_counter_->Inc(out->stats.match.compiled_hits);
    BridgeCompileStats();
  }
  root.SetStats(out->stats);
  return out;
}

Result<MediatorTranslation> TranslationService::TranslateObserved(
    const Query& full, Trace* trace,
    const std::vector<std::unique_ptr<MatchMemo>>& memos,
    const CancelToken* cancel) const {
  const SlowQueryLogOptions& slow = options_.obs.slow_query;
  // Head-sampling decision up front: the sampler counts every query it sees
  // (sampled or not), and a sampled query gets a trace even when the slow
  // log and metrics are off — the ring is its own consumer.
  const bool sampled = trace_ring_ != nullptr && trace_ring_->ShouldSample();
  const bool want_obs = slow.enabled || latency_hist_ != nullptr || sampled;
  if (!want_obs) return TranslateFull(full, trace, memos, cancel);

  // The slow-query log wants a trace of every query so the slow ones come
  // with their per-source spans attached, the per-phase qmap_span_*
  // histograms are fed from trace spans, and the retention ring stores
  // completed traces; record a trace internally when the caller did not
  // supply one and any of those consumers is active.
  std::unique_ptr<Trace> local_trace;
  if (trace == nullptr &&
      (slow.enabled || sampled || options_.obs.metrics != nullptr)) {
    local_trace = std::make_unique<Trace>("service", /*capture_detail=*/false);
    trace = local_trace.get();
  }

  const auto wall_start = std::chrono::steady_clock::now();
  Result<MediatorTranslation> out = TranslateFull(full, trace, memos, cancel);
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
  if (trace != nullptr && options_.obs.metrics != nullptr) {
    RecordTraceMetrics(*trace, options_.obs.metrics);
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
  if (store_ == nullptr || !options_.store.replay_on_boot) return;
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
  // No memo scope: each source translates this query at most once, so the
  // Translator's own per-call memo serves it exactly as well.
  return TranslateObserved(full, trace, /*memos=*/{}, MakeRequestToken(&token));
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
    // Each miss is a local source's unit of work. No memo scope: each is one
    // source translating one query, which the Translator's own per-call memo
    // covers exactly as well.
    const auto translate = [&](size_t m) {
      TranslateUnit(std::span(&misses[m], 1), full, /*trace=*/nullptr,
                    /*parent_span=*/0, /*memos=*/{}, cancel, outcomes,
                    reports);
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

  // One memo scope for the whole batch: distinct queries against one source
  // still share sub-conjunctions (hot root tables, common filters), so the
  // per-source memos keep paying across the batch's unique queries.
  std::vector<std::unique_ptr<MatchMemo>> memos = MakeMemoScope();
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
        TranslateObserved(unique_full[u], nullptr, memos, cancel);
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

// ---------------------------------------------------------------------------
// Admin / introspection plane

namespace {

/// The value of `key` in a raw query string ("a=1&b=2"), or "".
std::string_view QueryParam(std::string_view query, std::string_view key) {
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    size_t end = amp == std::string_view::npos ? query.size() : amp;
    std::string_view pair = query.substr(pos, end - pos);
    if (pair.size() > key.size() && pair.substr(0, key.size()) == key &&
        pair[key.size()] == '=') {
      return pair.substr(key.size() + 1);
    }
    if (amp == std::string_view::npos) break;
    pos = amp + 1;
  }
  return {};
}

/// Strict non-negative integer parse; -1 on anything else.
int ParseNonNegativeInt(std::string_view text) {
  if (text.empty() || text.size() > 9) return -1;
  int value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return -1;
    value = value * 10 + (c - '0');
  }
  return value;
}

std::string TracesJsonArray(const std::vector<ParsedTrace>& traces) {
  std::string out = "[";
  for (size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) out += ',';
    out += traces[i].ToJson();
  }
  out += "]";
  return out;
}

std::string StatusJson(const ServiceStatus& s) {
  const auto b = [](bool v) { return v ? "true" : "false"; };
  std::string out = "{\"version\":\"";
  out += kQmapVersion;
  out += "\",\"ready\":";
  out += b(s.ready);
  out += ",\"draining\":";
  out += b(s.draining);
  out += ",\"store\":{\"configured\":";
  out += b(s.store_configured);
  out += ",\"ok\":";
  out += b(s.store_ok);
  out += ",\"warmed_up\":";
  out += b(s.warmed_up);
  out += ",\"live_records\":" + std::to_string(s.stats.store.live_records);
  out += ",\"hits\":" + std::to_string(s.stats.store.hits);
  out += ",\"misses\":" + std::to_string(s.stats.store.misses) + "}";
  out += ",\"cache\":{\"entries\":" + std::to_string(s.cache_entries);
  out += ",\"hits\":" + std::to_string(s.stats.cache.hits);
  out += ",\"misses\":" + std::to_string(s.stats.cache.misses);
  out += ",\"evictions\":" + std::to_string(s.stats.cache.evictions) + "}";
  out += ",\"pool\":{\"threads\":" + std::to_string(s.pool_threads);
  out += ",\"queue_depth\":" + std::to_string(s.pool_queue_depth) + "}";
  out += ",\"service\":{\"translate_calls\":" +
         std::to_string(s.stats.translate_calls);
  out += ",\"batch_calls\":" + std::to_string(s.stats.batch_calls);
  out += ",\"slow_queries\":" + std::to_string(s.stats.slow_queries);
  out += ",\"match_engine\":\"" + JsonEscape(s.match_engine) + "\"}";
  out += ",\"sources\":[";
  for (size_t i = 0; i < s.sources.size(); ++i) {
    const SourceStatus& source = s.sources[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"" + JsonEscape(source.name) + "\"";
    out += ",\"endpoint\":\"" + JsonEscape(source.endpoint) + "\"";
    out += std::string(",\"breaker\":\"") +
           CircuitBreaker::StateName(source.breaker) + "\"";
    out += ",\"in_flight\":" + std::to_string(source.in_flight);
    out += ",\"calls\":" + std::to_string(source.calls);
    out += ",\"failures\":" + std::to_string(source.failures);
    out += ",\"retries\":" + std::to_string(source.retries) + "}";
  }
  out += "]";
  out += ",\"resilience\":{\"enabled\":";
  out += b(s.resilience_enabled);
  out += ",\"retries\":" + std::to_string(s.resilience.retries);
  out += ",\"breaker_rejections\":" +
         std::to_string(s.resilience.breaker_rejections);
  out += ",\"partial_results\":" +
         std::to_string(s.resilience.partial_results) + "}";
  out += ",\"trace_ring\":{\"enabled\":";
  out += b(s.trace_ring_enabled);
  out += ",\"seen\":" + std::to_string(s.trace_ring.seen);
  out += ",\"sampled\":" + std::to_string(s.trace_ring.sampled);
  out += ",\"outliers\":" + std::to_string(s.trace_ring.outliers);
  out += ",\"evicted\":" + std::to_string(s.trace_ring.evicted) + "}";
  out += ",\"chains\":[";
  for (size_t i = 0; i < s.chains.size(); ++i) {
    const ChainStatus& chain = s.chains[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"" + JsonEscape(chain.name) + "\",\"hops\":[";
    for (size_t j = 0; j < chain.hop_targets.size(); ++j) {
      if (j > 0) out += ',';
      out += "\"" + JsonEscape(chain.hop_targets[j]) + "\"";
    }
    out += "],\"composed_rules\":" + std::to_string(chain.composed_rules);
    out += ",\"approximate_marks\":" + std::to_string(chain.approximate_marks);
    out += ",\"exact\":";
    out += b(chain.exact);
    out += "}";
  }
  out += "]";
  out += ",\"pruned_sources\":[";
  for (size_t i = 0; i < s.pruned_sources.size(); ++i) {
    if (i > 0) out += ',';
    out += "{\"name\":\"" + JsonEscape(s.pruned_sources[i].name) + "\"";
    out += ",\"subsumed_by\":\"" +
           JsonEscape(s.pruned_sources[i].subsumed_by) + "\"}";
  }
  out += "]";
  out += "}";
  return out;
}

/// "87.5%" hit-rate rendering for /statusz ("-" when there were no lookups).
std::string HitRate(uint64_t hits, uint64_t misses) {
  uint64_t total = hits + misses;
  if (total == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                100.0 * static_cast<double>(hits) / static_cast<double>(total));
  return buf;
}

}  // namespace

ServiceStatus TranslationService::StatusSnapshot() const {
  ServiceStatus out;
  out.store_configured = options_.enable_cache && !options_.store.path.empty();
  out.store_ok = !out.store_configured || store_open_status_.ok();
  out.warmed_up = warmed_up_.load(std::memory_order_acquire);
  out.draining = draining();
  out.ready = !out.draining &&
              out.store_ok &&
              (store_ == nullptr || !options_.store.replay_on_boot ||
               out.warmed_up);
  out.match_engine = MatchEngineName(CurrentMatchEngine());
  out.stats = stats();
  out.cache_entries = options_.enable_cache ? cache_.size() : 0;
  out.pool_threads = pool_ != nullptr ? static_cast<size_t>(pool_->size()) : 0;
  out.pool_queue_depth = pool_ != nullptr ? pool_->queue_depth() : 0;
  out.sources.reserve(sources_.size());
  for (const SourceEntry& source : sources_) {
    SourceStatus status;
    status.name = source.name;
    status.endpoint = source.transport->endpoint();
    if (resilience_ != nullptr) {
      status.breaker = resilience_->breaker_state(source.name);
    }
    const SourceRuntime& runtime = *source.runtime;
    status.in_flight = runtime.in_flight.load(std::memory_order_relaxed);
    status.calls = runtime.calls.load(std::memory_order_relaxed);
    status.failures = runtime.failures.load(std::memory_order_relaxed);
    status.retries = runtime.retries.load(std::memory_order_relaxed);
    out.sources.push_back(std::move(status));
  }
  out.resilience_enabled = resilience_ != nullptr;
  if (resilience_ != nullptr) out.resilience = resilience_->counters();
  out.trace_ring_enabled = trace_ring_ != nullptr;
  if (trace_ring_ != nullptr) out.trace_ring = trace_ring_->stats();
  out.chains = chains_;
  out.pruned_sources = pruned_;
  return out;
}

void TranslationService::BridgeCompileStats() const {
  if (match_compile_ns_counter_ == nullptr) return;
  const CompiledPlanBuildStats global = CompiledPlanGlobalStats();
  match_compile_ns_counter_->RaiseTo(global.compile_ns);
  match_plan_nodes_counter_->RaiseTo(global.plan_nodes);
}

void TranslationService::UpdateGauges() const {
  BridgeCompileStats();
  MetricsRegistry* metrics = options_.obs.metrics;
  if (metrics == nullptr) return;
  metrics
      ->gauge("qmap_pool_queue_depth",
              "Tasks waiting in the worker pool's queue.")
      .Set(pool_ != nullptr ? static_cast<int64_t>(pool_->queue_depth()) : 0);
  metrics
      ->gauge("qmap_cache_entries",
              "Entries resident in the RAM translation cache.")
      .Set(options_.enable_cache ? static_cast<int64_t>(cache_.size()) : 0);
  metrics
      ->gauge("qmap_store_live_records",
              "Live records indexed by the persistent translation store.")
      .Set(store_ != nullptr ? static_cast<int64_t>(store_->num_entries()) : 0);
  // The intern and parse-memo totals are process-wide: each registry raises
  // its counters to them here, so every service's registry reads them.
  const InternStats intern = QueryInternStats();
  const struct {
    const char* name;
    const char* help;
    uint64_t total;
  } totals[] = {
      {"qmap_intern_query_hits_total",
       "Query-node constructions answered by the process-wide intern table.",
       intern.query_hits},
      {"qmap_intern_query_nodes_total",
       "Query nodes ever inserted into the process-wide intern table.",
       intern.query_nodes},
      {"qmap_intern_constraint_hits_total",
       "Leaf constraints answered by the process-wide intern table.",
       intern.constraint_hits},
      {"qmap_intern_constraint_nodes_total",
       "Constraints ever inserted into the process-wide intern table.",
       intern.constraint_nodes},
      {"qmap_parse_memo_hits_total",
       "Query parses answered by the parsing thread's text memo.",
       intern.parse_memo_hits},
      {"qmap_parse_memo_misses_total",
       "Query parses, made with interning on, the text memo did not answer.",
       intern.parse_memo_misses},
  };
  for (const auto& total : totals) {
    metrics->counter(total.name, total.help).RaiseTo(total.total);
  }
  metrics
      ->gauge("qmap_intern_query_nodes_live",
              "Query nodes resident in the process-wide intern table.")
      .Set(static_cast<int64_t>(intern.query_live));
  metrics
      ->gauge("qmap_intern_constraint_nodes_live",
              "Constraints resident in the process-wide intern table.")
      .Set(static_cast<int64_t>(intern.constraint_live));
  for (const SourceEntry& source : sources_) {
    CircuitBreaker::State state =
        resilience_ != nullptr ? resilience_->breaker_state(source.name)
                               : CircuitBreaker::State::kClosed;
    int64_t value = 0;
    switch (state) {
      case CircuitBreaker::State::kClosed: value = 0; break;
      case CircuitBreaker::State::kHalfOpen: value = 1; break;
      case CircuitBreaker::State::kOpen: value = 2; break;
    }
    metrics
        ->gauge("qmap_breaker_state_" + source.name,
                "Circuit breaker FSM state: 0=closed, 1=half_open, 2=open.")
        .Set(value);
  }
}

Status TranslationService::StartAdmin(const AdminOptions& options) {
  if (admin_ != nullptr) {
    return Status::InvalidArgument("admin server already started");
  }
  // Run the boot warm-up now so /readyz is meaningful the moment the port
  // opens, instead of flipping on the first Translate.
  WarmUpFromStoreOnce();
  auto server = std::make_unique<AdminHttpServer>(options.http);
  RegisterAdminHandlers(server.get(), options);
  Status status = server->Start();
  if (!status.ok()) return status;
  admin_ = std::move(server);
  return Status::Ok();
}

void TranslationService::StopAdmin() {
  if (admin_ != nullptr) {
    admin_->Stop();
    admin_.reset();
  }
}

void TranslationService::RegisterAdminHandlers(AdminHttpServer* server,
                                               const AdminOptions& options) {
  server->Handle("/healthz", [](std::string_view) {
    AdminResponse response;
    response.body = "ok\n";
    return response;
  });

  server->Handle("/readyz", [this](std::string_view) {
    ServiceStatus status = StatusSnapshot();
    AdminResponse response;
    if (status.ready) {
      response.body = "ready\n";
    } else {
      response.status = 503;
      response.body = "not ready: ";
      if (status.draining) {
        response.body += "draining";
      } else if (!status.store_ok) {
        response.body +=
            "store failed to open (" + store_open_status_.ToString() + ")";
      } else {
        response.body += "store warm-up has not run";
      }
      response.body += "\n";
    }
    return response;
  });

  // Graceful-drain trigger: flips readiness first (so a load balancer
  // scraping /readyz between this response and the process exiting sees
  // "draining"), then hands control to the embedding process's hook.
  server->Handle("/drainz",
                 [this, on_drain = options.on_drain](std::string_view) {
                   BeginDrain();
                   if (on_drain) on_drain();
                   AdminResponse response;
                   response.body = "draining\n";
                   return response;
                 });

  for (const auto& [path, handler] : options.extra_handlers) {
    server->Handle(path, handler);
  }

  server->Handle("/varz", [this](std::string_view) {
    UpdateGauges();
    AdminResponse response;
    response.content_type = "application/json; charset=utf-8";
    response.body = "{\"status\":" + StatusJson(StatusSnapshot()) +
                    ",\"metrics\":";
    response.body += options_.obs.metrics != nullptr
                         ? options_.obs.metrics->ToJson()
                         : "null";
    response.body += "}";
    return response;
  });

  server->Handle("/metrics", [this](std::string_view) {
    AdminResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    if (options_.obs.metrics == nullptr) {
      response.body = "# no MetricsRegistry attached to this service\n";
      return response;
    }
    UpdateGauges();
    response.body = options_.obs.metrics->ToPrometheusText();
    return response;
  });

  server->Handle("/statusz", [this](std::string_view) {
    ServiceStatus s = StatusSnapshot();
    AdminResponse response;
    std::string& out = response.body;
    out += std::string("qmap translation service ") + kQmapVersion + "\n";
    out += std::string("ready: ") + (s.ready ? "yes" : "no") + "\n";
    out += std::string("store: configured=") + (s.store_configured ? "yes" : "no") +
           " ok=" + (s.store_ok ? "yes" : "no") +
           " warmed_up=" + (s.warmed_up ? "yes" : "no") +
           " live_records=" + std::to_string(s.stats.store.live_records) +
           " hit_rate=" + HitRate(s.stats.store.hits, s.stats.store.misses) +
           "\n";
    out += "cache: entries=" + std::to_string(s.cache_entries) +
           " hits=" + std::to_string(s.stats.cache.hits) +
           " misses=" + std::to_string(s.stats.cache.misses) +
           " hit_rate=" + HitRate(s.stats.cache.hits, s.stats.cache.misses) +
           "\n";
    out += "pool: threads=" + std::to_string(s.pool_threads) +
           " queue_depth=" + std::to_string(s.pool_queue_depth) + "\n";
    out += "service: translate_calls=" + std::to_string(s.stats.translate_calls) +
           " batch_calls=" + std::to_string(s.stats.batch_calls) +
           " slow_queries=" + std::to_string(s.stats.slow_queries) +
           " match_engine=" + s.match_engine + "\n";
    out += std::string("resilience: enabled=") +
           (s.resilience_enabled ? "yes" : "no") +
           " retries=" + std::to_string(s.resilience.retries) +
           " breaker_rejections=" +
           std::to_string(s.resilience.breaker_rejections) +
           " partial_results=" + std::to_string(s.resilience.partial_results) +
           "\n";
    out += std::string("trace_ring: enabled=") +
           (s.trace_ring_enabled ? "yes" : "no") +
           " seen=" + std::to_string(s.trace_ring.seen) +
           " sampled=" + std::to_string(s.trace_ring.sampled) +
           " outliers=" + std::to_string(s.trace_ring.outliers) +
           " evicted=" + std::to_string(s.trace_ring.evicted) + "\n";
    out += "\nsource scoreboard:\n";
    char line[320];
    std::snprintf(line, sizeof(line), "  %-24s %-18s %-10s %9s %9s %9s %9s\n",
                  "source", "endpoint", "breaker", "in_flight", "calls",
                  "failures", "retries");
    out += line;
    for (const SourceStatus& source : s.sources) {
      std::snprintf(line, sizeof(line),
                    "  %-24s %-18s %-10s %9llu %9llu %9llu %9llu\n",
                    source.name.c_str(), source.endpoint.c_str(),
                    CircuitBreaker::StateName(source.breaker),
                    static_cast<unsigned long long>(source.in_flight),
                    static_cast<unsigned long long>(source.calls),
                    static_cast<unsigned long long>(source.failures),
                    static_cast<unsigned long long>(source.retries));
      out += line;
    }
    if (!s.chains.empty()) {
      out += "\nmediation chains:\n";
      for (const ChainStatus& chain : s.chains) {
        out += "  " + chain.name + ": ";
        for (size_t i = 0; i < chain.hop_targets.size(); ++i) {
          if (i > 0) out += " -> ";
          out += chain.hop_targets[i];
        }
        out += " (rules=" + std::to_string(chain.composed_rules) +
               " approximate_marks=" +
               std::to_string(chain.approximate_marks) +
               " exact=" + (chain.exact ? "yes" : "no") + ")\n";
      }
    }
    if (!s.pruned_sources.empty()) {
      out += "\ncontainment-pruned sources:\n";
      for (const PrunedSourceStatus& pruned : s.pruned_sources) {
        out += "  " + pruned.name + " subsumed by " + pruned.subsumed_by + "\n";
      }
    }
    return response;
  });

  server->Handle("/tracez", [this](std::string_view query) {
    AdminResponse response;
    response.content_type = "application/json; charset=utf-8";
    if (trace_ring_ == nullptr) {
      response.status = 404;
      response.body =
          "{\"error\":\"trace ring not enabled "
          "(ServiceOptions::obs.trace_ring)\"}";
      return response;
    }
    std::string target(QueryParam(query, "id"));
    std::string_view bucket = QueryParam(query, "bucket");
    if (target.empty() && !bucket.empty()) {
      // Exemplar jump: latency-histogram bucket index → retained trace.
      int b = ParseNonNegativeInt(bucket);
      if (b < 0 || b >= Histogram::kNumBuckets) {
        response.status = 400;
        response.body = "{\"error\":\"bad bucket index\"}";
        return response;
      }
      uint64_t serial =
          latency_hist_ != nullptr ? latency_hist_->exemplar(b) : 0;
      if (serial == 0) {
        response.status = 404;
        response.body =
            "{\"error\":\"no exemplar recorded for bucket " +
            std::to_string(b) + "\"}";
        return response;
      }
      target = "qt" + std::to_string(serial);
    }
    if (!target.empty()) {
      std::optional<ParsedTrace> trace = trace_ring_->Find(target);
      if (!trace.has_value()) {
        response.status = 404;
        response.body =
            "{\"error\":\"trace " + JsonEscape(target) + " not retained\"}";
        return response;
      }
      response.body = trace->ToJson();
      return response;
    }
    TraceRingStats stats = trace_ring_->stats();
    response.body = "{\"stats\":{\"seen\":" + std::to_string(stats.seen);
    response.body += ",\"sampled\":" + std::to_string(stats.sampled);
    response.body += ",\"outliers\":" + std::to_string(stats.outliers);
    response.body += ",\"evicted\":" + std::to_string(stats.evicted) + "}";
    response.body +=
        ",\"outliers\":" + TracesJsonArray(trace_ring_->OutlierSnapshot());
    response.body +=
        ",\"sampled\":" + TracesJsonArray(trace_ring_->SampledSnapshot());
    response.body += "}";
    return response;
  });

  server->Handle("/slowlogz", [this](std::string_view) {
    AdminResponse response;
    response.content_type = "application/json; charset=utf-8";
    std::vector<SlowQueryRecord> records = slow_queries();
    std::string& out = response.body;
    out = "[";
    for (size_t i = 0; i < records.size(); ++i) {
      const SlowQueryRecord& record = records[i];
      if (i > 0) out += ',';
      out += "{\"query\":\"" + JsonEscape(record.query_text) + "\"";
      out += ",\"total_us\":" + std::to_string(record.total_us);
      out += ",\"max_disjuncts\":" + std::to_string(record.max_disjuncts);
      out += ",\"stats\":\"" + JsonEscape(record.stats) + "\"";
      if (!record.partial_summary.empty()) {
        out += ",\"partial\":\"" + JsonEscape(record.partial_summary) + "\"";
      }
      // trace_json is itself a JSON document; embed it verbatim.
      out += ",\"trace\":";
      out += record.trace_json.empty() ? "null" : record.trace_json;
      out += "}";
    }
    out += "]";
    return response;
  });
}

}  // namespace qmap
