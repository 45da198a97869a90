#include "qmap/mediator/federation.h"

#include "qmap/mediator/mediator.h"
#include "qmap/obs/trace.h"

namespace qmap {

void FederatedCatalog::SetResilience(const ResilienceOptions& options,
                                     ResilienceClock* clock,
                                     FaultInjector* injector,
                                     MetricsRegistry* metrics) {
  resilience_ =
      std::make_shared<ResilienceManager>(options, clock, injector, metrics);
}

Result<FederatedCatalog::FederatedResult> FederatedCatalog::Query(
    const qmap::Query& query) const {
  CancelToken token;
  const CancelToken* cancel =
      resilience_ != nullptr ? resilience_->MakeRequestToken(&token) : nullptr;
  PartialResultGather gather(resilience_.get(), members_.size());
  for (const Member& member : members_) {
    ResilienceManager::CallReport report;
    const auto attempt = [&] {
      return member.transport->Translate(query, /*trace=*/nullptr,
                                         /*parent_span=*/0, cancel);
    };
    Result<Translation> translation =
        resilience_ != nullptr
            ? resilience_->GuardedTranslate(member.name, query, cancel, attempt,
                                            &report)
            : attempt();
    // The data-conversion direction is a source call too: a fault scripted
    // under "<member>.convert" drops the member even though its translation
    // succeeded (e.g. a conversion service being down).
    if (translation.ok() && resilience_ != nullptr &&
        resilience_->injector() != nullptr) {
      Fault fault = resilience_->injector()->Next(member.name + ".convert");
      if (fault.kind == FaultKind::kFail) {
        translation = fault.status.ok()
                          ? Status::Unavailable("injected conversion fault")
                          : fault.status;
      }
    }
    Status failure = gather.Add(member.name, std::move(translation), report);
    if (!failure.ok()) return failure;
  }
  // Union integration has no mediator-side join, so each member is filtered
  // by its own F_i; the gather's merged F goes unused here.
  Span untraced;
  Result<MediatorTranslation> gathered = gather.Finish(query, untraced);
  if (!gathered.ok()) return gathered.status();
  FederatedResult out;
  out.partial = std::move(gathered->partial);
  for (const Member& member : members_) {
    auto it = gathered->per_source.find(member.name);
    if (it == gathered->per_source.end()) continue;  // dropped
    const Translation& translation = it->second;
    MemberResult result;
    result.name = member.name;
    result.pushed = translation.mapped;
    result.filter = translation.filter;
    TupleSet hits;
    for (const Tuple& tuple : member.data) {
      if (EvalQuery(translation.mapped, member.convert(tuple), member.semantics)) {
        hits.push_back(tuple);
      }
    }
    result.raw_hits = hits.size();
    result.tuples = Select(hits, translation.filter);
    out.combined = Union(out.combined, result.tuples);
    out.per_member.push_back(std::move(result));
  }
  return out;
}

TupleSet FederatedCatalog::QueryDirect(const qmap::Query& query) const {
  TupleSet all;
  for (const Member& member : members_) {
    all = Union(all, member.data);
  }
  return Select(all, query);
}

}  // namespace qmap
