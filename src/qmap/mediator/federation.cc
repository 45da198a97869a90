#include "qmap/mediator/federation.h"

#include "qmap/expr/eval.h"

namespace qmap {

Result<FederatedCatalog::FederatedResult> FederatedCatalog::Query(
    const qmap::Query& query) const {
  FederatedResult out;
  for (const Member& member : members_) {
    Result<Translation> translation = member.translator.Translate(query);
    if (!translation.ok()) return translation.status();
    MemberResult result;
    result.name = member.name;
    result.pushed = std::move(translation->mapped);
    result.filter = std::move(translation->filter);
    TupleSet hits;
    for (const Tuple& tuple : member.data) {
      if (EvalQuery(result.pushed, member.convert(tuple), member.semantics)) {
        hits.push_back(tuple);
      }
    }
    result.raw_hits = hits.size();
    result.tuples = Select(hits, result.filter);
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
