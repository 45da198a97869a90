#ifndef QMAP_RULES_COMPOSE_H_
#define QMAP_RULES_COMPOSE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "qmap/common/status.h"
#include "qmap/mediator/capabilities.h"
#include "qmap/obs/trace.h"
#include "qmap/rules/spec.h"

namespace qmap {

/// Knobs for the offline composer. The defaults are far above anything a
/// realistic rule set produces; the caps exist so adversarial inputs fail
/// loudly instead of exploding combinatorially.
struct ComposeOptions {
  // Max composed rules derived from a single hop-2 rule. Exceeding it stops
  // enumeration for that rule and marks the composition approximate
  // (coverage of the remaining covers is lost, never soundness).
  int max_covers_per_rule = 256;
  // Hard ceiling on total composed rules; exceeding it is an error.
  int max_composed_rules = 8192;
};

/// Counters describing one composition run; exported by the service as
/// qmap_compose_* metrics and echoed on compose.hop trace spans.
struct ComposeStats {
  int hop1_rules = 0;
  int hop2_rules = 0;
  int composed_rules = 0;     // after dedup
  int covers_found = 0;       // before dedup
  int skipped_covers = 0;     // abandoned cover branches (see notes)
  int folded_conditions = 0;  // hop-2 conditions evaluated at compose time
  // Number of divergence risks detected: places where translating through
  // the composed spec may differ from sequential two-hop translation (both
  // stay sound — S(Q) ⊇ Q — but minimality/completeness may differ).
  // Zero marks means the composition is proven evaluation-equivalent on the
  // fragment the analyses cover; the property harness pins this.
  int approximate_marks = 0;
  std::vector<std::string> notes;  // human-readable reasons for the marks
};

/// Result of composing two mapping specs.
struct ComposedSpec {
  MappingSpec spec;
  ComposeStats stats;
  // True iff approximate_marks == 0: composed translation is
  // evaluation-equivalent to sequential hop-1-then-hop-2 translation.
  bool exact = true;
};

/// Composes two mapping specs offline: `hop1` maps the mediator vocabulary
/// to an intermediate vocabulary, `hop2` maps that intermediate vocabulary
/// to the source vocabulary. The result maps mediator → source directly, so
/// a mediator-of-mediators chain S2∘S1(Q) collapses to one translation.
///
/// Method (rule-level symbolic composition, after arXiv 0910.3372): for each
/// hop-2 rule, enumerate the ways its head patterns can be covered by
/// emission leaves of (renamed-apart instances of) hop-1 rules, unifying
/// pattern against template into a substitution σ. Each cover yields one
/// composed rule: head = the participating hop-1 instance heads, conditions
/// = hop-1 conditions plus the hop-2 conditions rewritten through σ
/// (constant-folded when fully concrete), lets = hop-1 lets then hop-2 lets
/// under σ (conversion-function chains fuse here: a hop-1 `let` feeding a
/// hop-2 `let` becomes two sequenced lets of one rule), emission = the
/// hop-2 emission under σ. The composed rule is `exact` only when every
/// participant is.
///
/// The composed spec's registry merges both parents' registries, its target
/// name is `hop2.target_name()`, and its fingerprint is seeded from both
/// parent fingerprints (the MappingSpec constructor's seed) so the 192-bit
/// translation-store key changes whenever either parent's rule set changes.
///
/// Unification is conservative: covers it cannot express exactly (a literal
/// that would need a runtime equality check, a hop-2 condition over a
/// hop-1 `let`-derived value, conflicting bindings for one variable) are
/// skipped and counted; structural situations where composed and sequential
/// translation can diverge (overlapping hop-1 instances, lost sub-matching
/// suppression, disjunctive hop-1 emissions) are detected and counted as
/// approximate_marks. See DESIGN.md §12 for the soundness argument.
///
/// When `trace` is non-null a `compose.hop` span (child of `parent_span`)
/// records the run with per-hop attributes.
///
/// Errors: malformed parents (Validate failure), the global composed-rule
/// cap, or a composed spec that fails Validate (a composer bug, surfaced
/// loudly rather than silently mistranslating).
Result<ComposedSpec> ComposeSpecs(const MappingSpec& hop1,
                                  const MappingSpec& hop2,
                                  const ComposeOptions& options = {},
                                  Trace* trace = nullptr,
                                  uint64_t parent_span = 0);

/// Derives the capability set a spec's emissions require of their target:
/// Allow(name, op) for every emission leaf whose attribute name is literal.
/// Leaves with variable attribute names cannot be enumerated statically and
/// are skipped — callers with such specs should declare capabilities
/// explicitly.
SourceCapabilities RequiredCapabilities(const MappingSpec& spec);

}  // namespace qmap

#endif  // QMAP_RULES_COMPOSE_H_
