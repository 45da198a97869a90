#include "qmap/core/translator.h"

#include <chrono>

#include "qmap/expr/parser.h"
#include "qmap/expr/simplify.h"
#include "qmap/obs/trace.h"

namespace qmap {

Result<Translation> Translator::Translate(const Query& query, Trace* trace,
                                          uint64_t parent_span) const {
  const auto start = std::chrono::steady_clock::now();
  Span span(trace, "translate", parent_span);
  Translation out;
  Result<Query> mapped = Query::True();
  switch (options_.algorithm) {
    case MappingAlgorithm::kTdqm: {
      TdqmOptions tdqm_options;
      tdqm_options.reuse_potential_matchings = options_.reuse_potential_matchings;
      tdqm_options.trace = trace;
      tdqm_options.parent_span = span.id();
      mapped = Tdqm(query, spec_, &out.stats, &out.coverage, tdqm_options);
      break;
    }
    case MappingAlgorithm::kDnf: {
      Span algorithm(trace, "dnf", span.id());
      mapped = DnfMap(query, spec_, &out.stats, &out.coverage);
      break;
    }
    case MappingAlgorithm::kNaive: {
      Span algorithm(trace, "naive", span.id());
      mapped = NaiveMap(query, spec_, &out.stats, &out.coverage);
      break;
    }
  }
  if (!mapped.ok()) return mapped.status();
  out.mapped = *std::move(mapped);
  {
    Span filter_span(trace, "filter", span.id());
    out.filter = ResidueFilter(query, out.coverage);
  }
  if (options_.simplify_output) {
    Span simplify_span(trace, "simplify", span.id());
    out.mapped = SimplifyQuery(out.mapped);
    out.filter = SimplifyQuery(out.filter);
  }
  out.stats.translate_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  span.SetStats(out.stats);
  return out;
}

Result<Translation> Translator::TranslateText(const std::string& query_text,
                                              Trace* trace,
                                              uint64_t parent_span) const {
  Result<Query> query = [&] {
    Span span(trace, "parse", parent_span);
    return ParseQuery(query_text);
  }();
  if (!query.ok()) return query.status();
  return Translate(*query, trace, parent_span);
}

}  // namespace qmap
