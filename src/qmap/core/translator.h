#ifndef QMAP_CORE_TRANSLATOR_H_
#define QMAP_CORE_TRANSLATOR_H_

#include <string>

#include "qmap/core/dnf_mapper.h"
#include "qmap/core/filter.h"
#include "qmap/core/naive_mapper.h"
#include "qmap/core/tdqm.h"

namespace qmap {

/// Which mapping algorithm the translator runs.
enum class MappingAlgorithm {
  kTdqm,   // Algorithm TDQM (Figure 8) — the paper's contribution
  kDnf,    // Algorithm DNF (Figure 6) — the correct-but-expensive baseline
  kNaive,  // per-constraint translation — the dependency-ignorant baseline
           // other systems use (Section 3); correct but non-minimal
};

struct TranslatorOptions {
  MappingAlgorithm algorithm = MappingAlgorithm::kTdqm;
  /// TDQM only: reuse the root potential matchings M_p for all safety
  /// checks and SCM base cases (Section 7.1.3). Off = recompute per node.
  bool reuse_potential_matchings = true;
  /// Post-process the mapped query and the filter with SimplifyQuery
  /// (absorption laws — the cheap part of the term minimization §8 points
  /// to).  Logically neutral; can only shrink the outputs.
  bool simplify_output = false;
};

/// A completed translation for one target context.
struct Translation {
  /// S(Q): the minimal subsuming mapping in the target vocabulary.
  Query mapped;
  /// The residue filter for this translation alone (Eq. 2-3): conjoined with
  /// `mapped`, it reconstructs the original query's selectivity.  True when
  /// the translation is exact.
  Query filter;
  /// Per-constraint exact coverage (for mediators merging several sources).
  ExactCoverage coverage;
  /// Cost counters.
  TranslationStats stats;
};

/// Facade tying the mapping algorithms together: one Translator per target
/// context (mapping specification).
class Translator {
 public:
  /// An empty translator (no rules: everything maps to True). Useful as a
  /// default-constructed placeholder.
  Translator() = default;

  explicit Translator(MappingSpec spec, TranslatorOptions options = {})
      : spec_(std::move(spec)), options_(options) {}

  const MappingSpec& spec() const { return spec_; }

  /// Translates `query` into the target vocabulary, producing the mapped
  /// query, the residue filter, and cost counters. With a trace attached,
  /// records a "translate" span under `parent_span` whose children cover the
  /// algorithm run (tdqm/dnf/naive, with the tdqm traversal fully nested)
  /// and the residue-filter construction; the span carries the final
  /// TranslationStats. A null trace is the no-op path.
  Result<Translation> Translate(const Query& query, Trace* trace = nullptr,
                                uint64_t parent_span = 0) const;

  /// Parses `query_text` with ParseQuery (a "parse" span when traced) and
  /// translates it.
  Result<Translation> TranslateText(const std::string& query_text,
                                    Trace* trace = nullptr,
                                    uint64_t parent_span = 0) const;

 private:
  MappingSpec spec_;
  TranslatorOptions options_{};
};

}  // namespace qmap

#endif  // QMAP_CORE_TRANSLATOR_H_
