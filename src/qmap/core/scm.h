#ifndef QMAP_CORE_SCM_H_
#define QMAP_CORE_SCM_H_

#include <vector>

#include "qmap/core/filter.h"
#include "qmap/core/stats.h"
#include "qmap/rules/matcher.h"

namespace qmap {

class Trace;

/// Output of Algorithm SCM.
struct ScmResult {
  /// S(Q̂): the conjunction of the emissions of the surviving matchings.
  Query mapped;
  /// The matchings that fired (after sub-matching suppression).
  std::vector<Matching> applied;
};

/// Algorithm SCM (Figure 4): maps a simple conjunction of constraints.
///
///   (1) find M(Q̂, K), all matchings of any rule in K;
///   (2) remove sub-matchings (a matching strictly contained in another is
///       redundant by Lemma 1);
///   (3) output the conjunction of the emissions of the remaining matchings.
///
/// Constraints matched by no rule contribute True (they are unsupported at
/// the target and fall to the residue filter).  With a sound and complete
/// specification the output is the minimal subsuming mapping (Theorem 1).
///
/// `coverage`, if non-null, records per-constraint exact coverage for
/// residue-filter construction (see ExactCoverage).
///
/// With a trace attached, step 1 records as a "match" span and steps 2-3 as
/// an "scm" span (both children of `parent_span`); in detail mode the "scm"
/// span carries one "match" attribute per applied rule — the lines
/// ExplainTdqm renders.
Result<ScmResult> Scm(const std::vector<Constraint>& conjunction,
                      const MappingSpec& spec, TranslationStats* stats = nullptr,
                      ExactCoverage* coverage = nullptr, Trace* trace = nullptr,
                      uint64_t parent_span = 0);

/// Convenience wrapper returning just the mapped query.
Result<Query> ScmMap(const std::vector<Constraint>& conjunction,
                     const MappingSpec& spec, TranslationStats* stats = nullptr);

/// Steps 2-3 of Algorithm SCM from precomputed matchings (indices into
/// `conjunction`): suppresses sub-matchings and conjoins the emissions.
/// Used by the M_p-reuse optimization of Section 7.1.3 — the potential
/// matchings computed once by Procedure EDNF stand in for step 1.
Result<ScmResult> ScmFromMatchings(const std::vector<Constraint>& conjunction,
                                   std::vector<Matching> matchings,
                                   const MappingSpec& spec,
                                   TranslationStats* stats = nullptr,
                                   ExactCoverage* coverage = nullptr,
                                   Trace* trace = nullptr,
                                   uint64_t parent_span = 0);

/// Step 2 of Algorithm SCM in isolation (exposed for tests and for the
/// suppression-ablation benchmark): removes every matching whose constraint
/// set is a strict subset of another matching's.
std::vector<Matching> SuppressSubmatchings(std::vector<Matching> matchings,
                                           TranslationStats* stats = nullptr);

}  // namespace qmap

#endif  // QMAP_CORE_SCM_H_
