#include "qmap/core/scm.h"

#include "qmap/obs/trace.h"

namespace qmap {

std::vector<Matching> SuppressSubmatchings(std::vector<Matching> matchings,
                                           TranslationStats* stats) {
  std::vector<bool> subsumed(matchings.size(), false);
  for (size_t j = 0; j < matchings.size(); ++j) {
    for (size_t i = 0; i < matchings.size(); ++i) {
      if (i == j) continue;
      if (matchings[j].IsStrictSubsetOf(matchings[i])) {
        subsumed[j] = true;
        break;
      }
    }
  }
  std::vector<Matching> kept;
  for (size_t j = 0; j < matchings.size(); ++j) {
    if (subsumed[j]) {
      if (stats != nullptr) ++stats->submatchings_removed;
    } else {
      kept.push_back(std::move(matchings[j]));
    }
  }
  return kept;
}

Result<ScmResult> Scm(const std::vector<Constraint>& conjunction,
                      const MappingSpec& spec, TranslationStats* stats,
                      ExactCoverage* coverage, Trace* trace,
                      uint64_t parent_span) {
  // (1) all matchings of any rule in K.
  std::vector<Matching> matchings;
  {
    Span span(trace, "match", parent_span);
    matchings = MatchSpec(spec, conjunction,
                          stats != nullptr ? &stats->match : nullptr);
  }
  return ScmFromMatchings(conjunction, std::move(matchings), spec, stats,
                          coverage, trace, parent_span);
}

Result<ScmResult> ScmFromMatchings(const std::vector<Constraint>& conjunction,
                                   std::vector<Matching> matchings,
                                   const MappingSpec& spec,
                                   TranslationStats* stats,
                                   ExactCoverage* coverage, Trace* trace,
                                   uint64_t parent_span) {
  if (stats != nullptr) ++stats->scm_calls;
  Span span(trace, "scm", parent_span);

  // (2) sub-matching suppression.
  matchings = SuppressSubmatchings(std::move(matchings), stats);

  // (3) conjunction of the emissions.
  std::vector<Query> emissions;
  emissions.reserve(matchings.size());
  std::vector<bool> exactly_covered(conjunction.size(), false);
  for (const Matching& m : matchings) {
    Result<Query> emission = m.rule->Fire(m.bindings, spec.registry());
    if (!emission.ok()) return emission.status();
    if (span.detail()) {
      std::string line = m.rule_name + (m.rule_exact ? "" : " (inexact)") +
                         " matched {";
      for (size_t i = 0; i < m.constraint_indices.size(); ++i) {
        if (i > 0) line += ", ";
        line +=
            conjunction[static_cast<size_t>(m.constraint_indices[i])].ToString();
      }
      line += "} -> " + emission->ToString();
      span.AddAttr("match", std::move(line));
    }
    emissions.push_back(*std::move(emission));
    if (m.rule_exact) {
      for (int index : m.constraint_indices) exactly_covered[index] = true;
    }
  }
  if (stats != nullptr) stats->matchings_applied += matchings.size();

  if (coverage != nullptr) {
    for (size_t i = 0; i < conjunction.size(); ++i) {
      coverage->Record(conjunction[i], exactly_covered[i]);
    }
  }

  ScmResult result;
  result.mapped = Query::And(std::move(emissions));
  result.applied = std::move(matchings);
  return result;
}

Result<Query> ScmMap(const std::vector<Constraint>& conjunction,
                     const MappingSpec& spec, TranslationStats* stats) {
  Result<ScmResult> result = Scm(conjunction, spec, stats);
  if (!result.ok()) return result.status();
  return result->mapped;
}

}  // namespace qmap
