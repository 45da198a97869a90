#ifndef QMAP_MEDIATOR_MEDIATOR_H_
#define QMAP_MEDIATOR_MEDIATOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "qmap/common/status.h"
#include "qmap/core/translator.h"
#include "qmap/mediator/source.h"
#include "qmap/relalg/conversion.h"

namespace qmap {

/// One dropped source in a partial federated translation.
struct SourceFailure {
  std::string source;
  Status status;
  uint32_t attempts = 0;  // attempts made before giving up (0 = rejected
                          // before any attempt, e.g. breaker open)
};

/// The degradation report attached to a federated translation. `failed`
/// lists sources dropped from the answer with the Status that dropped them;
/// `degraded` lists sources that answered with a widened (still subsuming)
/// translation. Both are in fan-out (source-name) order.
struct PartialResult {
  std::vector<SourceFailure> failed;
  std::vector<std::string> degraded;

  bool complete() const { return failed.empty(); }
  /// e.g. "failed: S1 (Unavailable: injected fault, 3 attempts); degraded: S2"
  std::string ToString() const;
};

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
  /// Which sources were dropped or answered degraded. Always complete from
  /// Mediator::Translate; only a TranslationService with resilience enabled
  /// serves partial or degraded answers (docs/ROBUSTNESS.md).
  PartialResult partial;
  /// Cost counters merged across all per-source translations (plus the
  /// service layer's cache/parallelism counters when produced by a
  /// TranslationService). Observability only: not part of the translation's
  /// semantic payload.
  TranslationStats stats;
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

  /// Registers a conversion function (applied in order, after crossing).
  void AddConversion(ConversionFn conversion);

  /// Declares constraints that are part of the *view definitions* (e.g. the
  /// cross-source join tying aubib.name to prof's ln/fn in Example 3).
  /// They are conjoined to every translated query and — being cross-source —
  /// evaluate at the mediator, through the filter.
  void SetViewConstraints(Query constraints);
  const Query& view_constraints() const { return view_constraints_; }

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
  /// A partial translation (translation.partial incomplete, e.g. one a
  /// TranslationService served with a source dropped) is rejected with
  /// Unavailable: the mediator's integration is a *join* (Eq. 2 crosses
  /// every source), so a missing source cannot be compensated.
  Result<TupleSet> ExecuteTranslated(const MediatorTranslation& translation) const;

  /// Ground truth via Eq. 1: cross everything unfiltered, convert, then
  /// select with the original query.  Execute() must agree with this —
  /// the empirical form of the correctness property Eq. 3.
  Result<TupleSet> ExecuteDirect(const Query& query) const;

 private:
  Result<TupleSet> ConvertedCross(const MediatorTranslation* translation) const;

  TranslatorOptions options_;
  std::vector<SourceContext> sources_;
  /// One per source, parallel to sources_, built once by AddSource.
  std::vector<Translator> translators_;
  std::vector<ConversionFn> conversions_;
  Query view_constraints_ = Query::True();
};

}  // namespace qmap

#endif  // QMAP_MEDIATOR_MEDIATOR_H_
