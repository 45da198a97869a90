#ifndef QMAP_MEDIATOR_MEDIATOR_H_
#define QMAP_MEDIATOR_MEDIATOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "qmap/core/translator.h"
#include "qmap/mediator/source.h"
#include "qmap/rules/containment.h"
#include "qmap/relalg/conversion.h"
#include "qmap/service/resilience.h"
#include "qmap/service/source_transport.h"

namespace qmap {

class Span;

/// The mediator's answer to "translate Q for everyone" (Eq. 3):
/// Q = F ∧ S_1(Q) ∧ ... ∧ S_n(Q).
struct MediatorTranslation {
  /// S_i(Q), keyed by source name. Sources listed in `partial.failed` are
  /// absent; sources in `partial.degraded` are present with a widened
  /// (still subsuming) translation.
  std::map<std::string, Translation> per_source;
  /// The residue filter F: the original constraints not fully realized at
  /// any source (plus cross-source view constraints, which no single source
  /// can evaluate). Built from the *successful* sources' coverage only, so
  /// a constraint that was exactly realized only at a failed or degraded
  /// source moves back into F — that recomputation is what keeps partial
  /// and degraded answers sound (Definition 1's subsumption guarantee).
  Query filter;
  /// Which sources were dropped or answered degraded (empty/complete unless
  /// resilience is enabled — see qmap/service/resilience.h).
  PartialResult partial;
  /// Cost counters merged across all per-source translations (plus the
  /// service layer's cache/parallelism counters when produced by a
  /// TranslationService). Observability only: not part of the translation's
  /// semantic payload.
  TranslationStats stats;
};

/// The one partial-result policy (docs/ROBUSTNESS.md), shared by every
/// fan-out over sources: Mediator::Translate, FederatedCatalog::Query and
/// TranslationService's join each feed it one outcome per source, in source
/// order, and then call Finish once.
///
///   * Add keeps a successful translation (listing a degraded one in
///     partial.degraded) and drops a failed source into partial.failed when
///     partial answers are allowed (ResilienceOptions::allow_partial) and the
///     failure is drop-category (IsSourceDropFailure). Any other failure is
///     returned for the caller to fail the whole call with.
///   * Finish fails the call with Unavailable when fewer than min_sources
///     sources survived a drop, counts the partial result, and builds F from
///     the survivors' exact coverage only. A constraint that only a dropped
///     or degraded source realized exactly therefore stays in F — the
///     recomputation that keeps partial answers sound.
class PartialResultGather {
 public:
  /// `resilience` may be null: then no failure is droppable.
  PartialResultGather(ResilienceManager* resilience, size_t num_sources)
      : resilience_(resilience), num_sources_(num_sources) {
    coverages_.reserve(num_sources);
  }
  // coverages_ points into out_.per_source: a copy would alias the original.
  PartialResultGather(const PartialResultGather&) = delete;
  PartialResultGather& operator=(const PartialResultGather&) = delete;

  /// Folds in one source's outcome and its guard report (retries, deadline
  /// hits, breaker rejections and degradation count into the stats). Returns
  /// the failure when it cannot be dropped, Ok otherwise.
  Status Add(const std::string& source, Result<Translation> translation,
             const ResilienceManager::CallReport& report);

  /// Runs the min_sources gate and builds F over the survivors under a
  /// "filter" child span of `root`; a partial answer also tags `root` with
  /// attr "partial". `root` may be disabled (no trace).
  Result<MediatorTranslation> Finish(const Query& full, Span& root);

 private:
  ResilienceManager* const resilience_;
  const size_t num_sources_;
  MediatorTranslation out_;
  std::vector<const ExactCoverage*> coverages_;  // survivors', in source order
};

/// A mediation pipeline over heterogeneous sources (Section 2): view
/// expansion has already rewritten the user query into the constraint query
/// Q over qualified source relations and view attributes; this class owns
/// the per-source constraint mapping and the execution of Eq. 2.
///
/// Execution data flow (Eq. 2):
///   per source:   σ_{S_i(Q)}(R_i)        — push the mapped query down
///   across:       × of the source results
///   conversions:  apply the conceptual relations X (format conversions,
///                 renames from source paths to view attributes)
///   mediator:     σ_F — the residue filter removes the false positives the
///                 relaxed mappings admitted (Figure 1)
class Mediator {
 public:
  explicit Mediator(TranslatorOptions options = {}) : options_(options) {}

  void AddSource(SourceContext source);
  const SourceContext* FindSource(const std::string& name) const;
  const std::vector<SourceContext>& sources() const { return sources_; }

  /// Routes the named source's constraint mapping through `transport`
  /// (e.g. a RemoteTransport to a shard worker) instead of translating
  /// in-process from its spec. The source must still be AddSource'd — its
  /// spec/capabilities stay the vocabulary of record for execution; only
  /// where the *translation* runs changes. Pass nullptr to restore the
  /// in-process default.
  void SetSourceTransport(const std::string& name,
                          std::shared_ptr<SourceTransport> transport);

  /// Registers a conversion function (applied in order, after crossing).
  void AddConversion(ConversionFn conversion);

  /// Declares constraints that are part of the *view definitions* (e.g. the
  /// cross-source join tying aubib.name to prof's ln/fn in Example 3).
  /// They are conjoined to every translated query and — being cross-source —
  /// evaluate at the mediator, through the filter.
  void SetViewConstraints(Query constraints);
  const Query& view_constraints() const { return view_constraints_; }

  /// Optional custom constraint semantics used when executing queries.
  void SetSemantics(const ConstraintSemantics* semantics) { semantics_ = semantics; }

  /// Enables graceful degradation for Translate: per-source retry/backoff,
  /// circuit breaking, deadline budgets, and (with options.allow_partial)
  /// partial translations that drop failed sources into
  /// MediatorTranslation::partial instead of failing the call. `clock`,
  /// `injector` and `metrics` may be null (system clock, no fault injection,
  /// no metrics); non-null pointers must outlive the mediator.
  void SetResilience(const ResilienceOptions& options,
                     ResilienceClock* clock = nullptr,
                     FaultInjector* injector = nullptr,
                     MetricsRegistry* metrics = nullptr);
  ResilienceManager* resilience() const { return resilience_.get(); }

  /// Advisory containment analysis over the registered sources: which
  /// sources' mappings are provably contained in another's (see
  /// qmap/rules/containment.h). The mediator itself never prunes — its
  /// integration is a *join* (Eq. 2 crosses every source), so removing a
  /// source changes the result. The analysis tells operators which sources
  /// are mapping-redundant; actual fan-out pruning lives in
  /// TranslationService::PruneContainedSources, whose union/replica caching
  /// semantics make it sound.
  ContainmentAnalysis AnalyzeSourceContainment() const;

  /// Translates `query` for every source and builds the combined filter:
  /// a constraint is dropped from F only if some source realizes it exactly.
  /// With a trace attached, records a "mediator.translate" span under
  /// `parent_span` with one "source.translate" child per source (attr
  /// "source" = name, stats = that source's counters) plus a "filter" span.
  Result<MediatorTranslation> Translate(const Query& query,
                                        Trace* trace = nullptr,
                                        uint64_t parent_span = 0) const;

  /// Runs the full pipeline of Eq. 2 and returns the result tuples (in the
  /// converted, view-attribute vocabulary).
  Result<TupleSet> Execute(const Query& query) const;

  /// Runs the execution half of Eq. 2 against a previously computed
  /// translation (e.g. one cached by a TranslationService): per-source
  /// push-down selects, cross, conversions, then the residue filter.
  /// `translation` must cover every current source — if a source was added
  /// after the translation was computed, returns NotFound (it never throws).
  /// A partial translation (translation.partial incomplete) is rejected
  /// with Unavailable: the mediator's integration is a *join* (Eq. 2
  /// crosses every source), so a missing source cannot be compensated —
  /// only union integrations (FederatedCatalog) can serve partial answers.
  Result<TupleSet> ExecuteTranslated(const MediatorTranslation& translation) const;

  /// Ground truth via Eq. 1: cross everything unfiltered, convert, then
  /// select with the original query.  Execute() must agree with this —
  /// the empirical form of the correctness property Eq. 3.
  Result<TupleSet> ExecuteDirect(const Query& query) const;

 private:
  Result<TupleSet> ConvertedCross(const MediatorTranslation* translation) const;

  TranslatorOptions options_;
  std::vector<SourceContext> sources_;
  /// Per-source transport overrides (see SetSourceTransport); sources not
  /// listed translate in-process from their spec.
  std::map<std::string, std::shared_ptr<SourceTransport>> transports_;
  std::vector<ConversionFn> conversions_;
  Query view_constraints_ = Query::True();
  const ConstraintSemantics* semantics_ = nullptr;
  // Shared (not unique) so Mediator stays copyable; copies share breaker
  // state, which is the desired behavior for one logical federation.
  std::shared_ptr<ResilienceManager> resilience_;
};

}  // namespace qmap

#endif  // QMAP_MEDIATOR_MEDIATOR_H_
