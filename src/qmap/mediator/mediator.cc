#include "qmap/mediator/mediator.h"

#include <algorithm>

#include "qmap/core/filter.h"
#include "qmap/obs/trace.h"
#include "qmap/relalg/ops.h"

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
    if (resilience_ != nullptr && resilience_->options().allow_partial &&
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

void Mediator::AddSource(SourceContext source) {
  sources_.push_back(std::move(source));
}

ContainmentAnalysis Mediator::AnalyzeSourceContainment() const {
  std::vector<std::string> names;
  std::vector<const MappingSpec*> specs;
  names.reserve(sources_.size());
  specs.reserve(sources_.size());
  for (const SourceContext& source : sources_) {
    names.push_back(source.name());
    specs.push_back(&source.spec());
  }
  return AnalyzeContainment(names, specs);
}

const SourceContext* Mediator::FindSource(const std::string& name) const {
  for (const SourceContext& source : sources_) {
    if (source.name() == name) return &source;
  }
  return nullptr;
}

void Mediator::SetSourceTransport(const std::string& name,
                                  std::shared_ptr<SourceTransport> transport) {
  if (transport == nullptr) {
    transports_.erase(name);
  } else {
    transports_[name] = std::move(transport);
  }
}

void Mediator::AddConversion(ConversionFn conversion) {
  conversions_.push_back(std::move(conversion));
}

void Mediator::SetViewConstraints(Query constraints) {
  view_constraints_ = std::move(constraints);
}

void Mediator::SetResilience(const ResilienceOptions& options,
                             ResilienceClock* clock, FaultInjector* injector,
                             MetricsRegistry* metrics) {
  resilience_ =
      std::make_shared<ResilienceManager>(options, clock, injector, metrics);
}

Result<MediatorTranslation> Mediator::Translate(const Query& query, Trace* trace,
                                                uint64_t parent_span) const {
  Span root(trace, "mediator.translate", parent_span);
  Query full = query & view_constraints_;
  CancelToken token;
  const CancelToken* cancel =
      resilience_ != nullptr ? resilience_->MakeRequestToken(&token) : nullptr;
  PartialResultGather gather(resilience_.get(), sources_.size());
  for (const SourceContext& source : sources_) {
    Span source_span(trace, "source.translate", root.id());
    if (source_span.enabled()) source_span.AddAttr("source", source.name());
    auto transport_it = transports_.find(source.name());
    std::shared_ptr<SourceTransport> transport =
        transport_it != transports_.end()
            ? transport_it->second
            : std::make_shared<InProcessTransport>(
                  Translator(source.spec(), options_));
    ResilienceManager::CallReport report;
    const auto attempt = [&] {
      return transport->Translate(full, trace, source_span.id(),
                                  /*memo=*/nullptr, cancel);
    };
    Result<Translation> translation =
        resilience_ != nullptr
            ? resilience_->GuardedTranslate(source.name(), full, cancel,
                                            attempt, &report, trace,
                                            source_span.id())
            : attempt();
    if (translation.ok()) source_span.SetStats(translation->stats);
    Status failure = gather.Add(source.name(), std::move(translation), report);
    if (!failure.ok()) return failure;
  }
  Result<MediatorTranslation> out = gather.Finish(full, root);
  if (out.ok()) root.SetStats(out->stats);
  return out;
}

Result<TupleSet> Mediator::ConvertedCross(const MediatorTranslation* translation) const {
  TupleSet combined = {Tuple()};
  for (const SourceContext& source : sources_) {
    Result<TupleSet> tuples = source.CrossOfBoundRelations();
    if (!tuples.ok()) return tuples.status();
    TupleSet source_tuples = *std::move(tuples);
    if (translation != nullptr) {
      auto it = translation->per_source.find(source.name());
      if (it == translation->per_source.end()) {
        return Status::NotFound("no translation for source '" + source.name() +
                                "' (source added after Translate?)");
      }
      source_tuples = Select(source_tuples, it->second.mapped, semantics_);
    }
    combined = Cross(combined, source_tuples);
  }
  TupleSet converted = std::move(combined);
  for (const ConversionFn& conversion : conversions_) {
    Result<TupleSet> applied = ApplyConversion(converted, conversion);
    if (!applied.ok()) return applied.status();
    converted = *std::move(applied);
  }
  return converted;
}

Result<TupleSet> Mediator::Execute(const Query& query) const {
  Result<MediatorTranslation> translation = Translate(query);
  if (!translation.ok()) return translation.status();
  return ExecuteTranslated(*translation);
}

Result<TupleSet> Mediator::ExecuteTranslated(
    const MediatorTranslation& translation) const {
  if (!translation.partial.complete()) {
    // Eq. 2 crosses *every* source: with one missing there is no sound
    // answer for a join integration (unlike FederatedCatalog's union).
    return Status::Unavailable(
        "partial translation cannot be executed by the join pipeline (" +
        translation.partial.ToString() + ")");
  }
  Result<TupleSet> converted = ConvertedCross(&translation);
  if (!converted.ok()) return converted;
  return Select(*converted, translation.filter, semantics_);
}

Result<TupleSet> Mediator::ExecuteDirect(const Query& query) const {
  Result<TupleSet> converted = ConvertedCross(nullptr);
  if (!converted.ok()) return converted;
  Query full = query & view_constraints_;
  return Select(*converted, full, semantics_);
}

}  // namespace qmap
