#ifndef QMAP_SERVICE_PARTIAL_RESULT_H_
#define QMAP_SERVICE_PARTIAL_RESULT_H_

#include <cstddef>
#include <string>
#include <vector>

#include "qmap/mediator/mediator.h"
#include "qmap/service/resilience.h"

namespace qmap {

class Span;

/// The partial-result policy (docs/ROBUSTNESS.md) of TranslationService's
/// join: it feeds in one outcome per source, in source order, and then
/// calls Finish once.
///
///   * Add keeps a successful translation (listing a degraded one in
///     partial.degraded) and, with resilience on, drops a failed source into
///     partial.failed when the failure is drop-category
///     (IsSourceDropFailure). Any other failure is returned for the caller
///     to fail the whole call with.
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

}  // namespace qmap

#endif  // QMAP_SERVICE_PARTIAL_RESULT_H_
