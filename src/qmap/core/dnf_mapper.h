#ifndef QMAP_CORE_DNF_MAPPER_H_
#define QMAP_CORE_DNF_MAPPER_H_

#include "qmap/core/scm.h"
#include "qmap/expr/dnf.h"

namespace qmap {

/// Algorithm DNF (Figure 6) — the baseline mapper for complex queries:
///
///   (1) convert Q into DNF (disjuncts are always separable, so the mapping
///       distributes over ∨);
///   (2) map each disjunct with Algorithm SCM;
///   (3) return the disjunction of the mapped disjuncts.
///
/// Guarantees the minimal subsuming mapping, but the conversion is global
/// and blind: exponential blow-up regardless of whether any constraint
/// dependencies exist (Sections 5 and 8). Algorithm TDQM is the efficient
/// alternative.
Result<Query> DnfMap(const Query& query, const MappingSpec& spec,
                     TranslationStats* stats = nullptr,
                     ExactCoverage* coverage = nullptr);

}  // namespace qmap

#endif  // QMAP_CORE_DNF_MAPPER_H_
