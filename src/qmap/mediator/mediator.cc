#include "qmap/mediator/mediator.h"

#include "qmap/core/filter.h"
#include "qmap/obs/trace.h"
#include "qmap/relalg/ops.h"

namespace qmap {

std::string PartialResult::ToString() const {
  std::string out;
  if (!failed.empty()) {
    out += "failed:";
    for (const SourceFailure& f : failed) {
      out += " " + f.source + " (" + f.status.ToString() + ", " +
             std::to_string(f.attempts) + " attempts)";
    }
  }
  if (!degraded.empty()) {
    if (!out.empty()) out += "; ";
    out += "degraded:";
    for (const std::string& name : degraded) out += " " + name;
  }
  if (out.empty()) out = "complete";
  return out;
}

void Mediator::AddSource(SourceContext source) {
  translators_.emplace_back(source.spec(), options_);
  sources_.push_back(std::move(source));
}

const SourceContext* Mediator::FindSource(const std::string& name) const {
  for (const SourceContext& source : sources_) {
    if (source.name() == name) return &source;
  }
  return nullptr;
}

void Mediator::AddConversion(ConversionFn conversion) {
  conversions_.push_back(std::move(conversion));
}

void Mediator::SetViewConstraints(Query constraints) {
  view_constraints_ = std::move(constraints);
}

Result<MediatorTranslation> Mediator::Translate(const Query& query, Trace* trace,
                                                uint64_t parent_span) const {
  Span root(trace, "mediator.translate", parent_span);
  Query full = query & view_constraints_;
  MediatorTranslation out;
  std::vector<const ExactCoverage*> coverages;  // in source order
  coverages.reserve(sources_.size());
  for (size_t i = 0; i < sources_.size(); ++i) {
    const std::string& name = sources_[i].name();
    Span source_span(trace, "source.translate", root.id());
    if (source_span.enabled()) source_span.AddAttr("source", name);
    Result<Translation> translation =
        translators_[i].Translate(full, trace, source_span.id());
    if (!translation.ok()) return translation.status();
    source_span.SetStats(translation->stats);
    out.stats.MergeFrom(translation->stats);
    auto [slot, inserted] = out.per_source.emplace(name, *std::move(translation));
    if (inserted) coverages.push_back(&slot->second.coverage);
  }
  // A constraint stays in F unless some source covered it exactly; a
  // disjunction stays unless one single source covers all its leaves.
  {
    Span filter_span(trace, "filter", root.id());
    out.filter = MergedResidueFilter(full, coverages);
  }
  root.SetStats(out.stats);
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
      source_tuples = Select(source_tuples, it->second.mapped);
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
    // answer for a join integration.
    return Status::Unavailable(
        "partial translation cannot be executed by the join pipeline (" +
        translation.partial.ToString() + ")");
  }
  Result<TupleSet> converted = ConvertedCross(&translation);
  if (!converted.ok()) return converted;
  return Select(*converted, translation.filter);
}

Result<TupleSet> Mediator::ExecuteDirect(const Query& query) const {
  Result<TupleSet> converted = ConvertedCross(nullptr);
  if (!converted.ok()) return converted;
  Query full = query & view_constraints_;
  return Select(*converted, full);
}

}  // namespace qmap
