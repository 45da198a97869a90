#include "qmap/service/partial_result.h"

#include <algorithm>

#include "qmap/core/filter.h"
#include "qmap/obs/trace.h"

namespace qmap {

Status PartialResultGather::Add(const std::string& source,
                                Result<Translation> translation,
                                const ResilienceManager::CallReport& report) {
  out_.stats.retries += report.retries;
  out_.stats.deadline_hits += report.deadline_hit ? 1 : 0;
  out_.stats.breaker_rejections += report.breaker_rejected ? 1 : 0;
  if (!translation.ok()) {
    // A dropped source's coverage never reaches coverages_, so F keeps every
    // constraint only that source would have realized.
    if (resilience_ != nullptr &&
        IsSourceDropFailure(translation.status().code())) {
      out_.partial.failed.push_back(
          {source, translation.status(), report.attempts});
      out_.stats.failed_sources += 1;
      return Status::Ok();
    }
    return translation.status();
  }
  if (report.degraded) {
    out_.partial.degraded.push_back(source);
    out_.stats.degraded_sources += 1;
  }
  out_.stats.MergeFrom(translation->stats);
  auto [slot, inserted] =
      out_.per_source.emplace(source, *std::move(translation));
  if (inserted) coverages_.push_back(&slot->second.coverage);
  return Status::Ok();
}

Result<MediatorTranslation> PartialResultGather::Finish(const Query& full,
                                                        Span& root) {
  // Only Add's drop branch fills partial.failed, and it requires resilience_.
  if (!out_.partial.failed.empty()) {
    const size_t survivors = num_sources_ - out_.partial.failed.size();
    if (survivors < std::max<size_t>(1, resilience_->options().min_sources)) {
      return Status::Unavailable(
          "only " + std::to_string(survivors) + " of " +
          std::to_string(num_sources_) +
          " sources available: " + out_.partial.ToString());
    }
    resilience_->RecordPartialResult(out_.partial.failed.size());
    if (root.enabled()) root.AddAttr("partial", out_.partial.ToString());
  }
  // A constraint stays in F unless some source covered it exactly; a
  // disjunction stays unless one single source covers all its leaves.
  {
    Span filter_span(root.trace(), "filter", root.id());
    out_.filter = MergedResidueFilter(full, coverages_);
  }
  return std::move(out_);
}

}  // namespace qmap
