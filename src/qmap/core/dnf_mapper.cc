#include "qmap/core/dnf_mapper.h"

namespace qmap {

Result<Query> DnfMap(const Query& query, const MappingSpec& spec,
                     TranslationStats* stats, ExactCoverage* coverage) {
  // (1) global DNF conversion.
  std::vector<std::vector<Constraint>> disjuncts = DnfDisjuncts(query);
  if (stats != nullptr) stats->dnf_disjuncts += disjuncts.size();

  // (2) Algorithm SCM on every disjunct; (3) disjunction of the results.
  std::vector<Query> mapped;
  mapped.reserve(disjuncts.size());
  for (const std::vector<Constraint>& disjunct : disjuncts) {
    Result<ScmResult> result = Scm(disjunct, spec, stats, coverage);
    if (!result.ok()) return result.status();
    mapped.push_back(std::move(result->mapped));
  }
  return Query::Or(std::move(mapped));
}

}  // namespace qmap
