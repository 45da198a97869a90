#include "qmap/core/tdqm.h"

#include <memory>

#include "qmap/core/psafe.h"
#include "qmap/expr/dnf.h"
#include "qmap/obs/trace.h"

namespace qmap {
namespace {

struct TdqmContext {
  const MappingSpec& spec;
  TranslationStats* stats;
  ExactCoverage* coverage;
  /// Root-level EDNF machinery, shared across the traversal when the reuse
  /// optimization is on; nullptr otherwise.
  const EdnfComputer* shared_ednf;
  /// Per-query trace, or nullptr for the uninstrumented path.
  Trace* trace;
};

Result<Query> Walk(const Query& query, TdqmContext& ctx, uint64_t parent_span) {
  // Case 3: simple conjunctions (including leaves and True) go to SCM.
  if (query.IsSimpleConjunction()) {
    if (query.is_true()) {
      Span node(ctx.trace, "node.true", parent_span);
      return Query::True();
    }
    Span node(ctx.trace, "node.scm", parent_span);
    if (node.detail()) node.AddAttr("query", query.ToString());
    std::vector<Constraint> conjunction = query.AsSimpleConjunction();
    if (ctx.shared_ednf != nullptr) {
      std::optional<std::vector<Matching>> matchings =
          ctx.shared_ednf->MatchingsFor(conjunction);
      if (matchings.has_value()) {
        Result<ScmResult> result =
            ScmFromMatchings(conjunction, *std::move(matchings), ctx.spec,
                             ctx.stats, ctx.coverage, ctx.trace, node.id());
        if (!result.ok()) return result.status();
        return result->mapped;
      }
      // Constraint outside the root table (cannot happen for rewrites of the
      // original query); fall through to fresh matching.
    }
    Result<ScmResult> result = Scm(conjunction, ctx.spec, ctx.stats,
                                   ctx.coverage, ctx.trace, node.id());
    if (!result.ok()) return result.status();
    return result->mapped;
  }

  // Case 1: ∨ node — disjuncts are always separable.
  if (query.kind() == NodeKind::kOr) {
    Span node(ctx.trace, "node.or", parent_span);
    if (node.detail()) {
      node.AddAttr("disjuncts", std::to_string(query.children().size()));
    }
    std::vector<Query> mapped;
    mapped.reserve(query.children().size());
    for (const Query& disjunct : query.children()) {
      Result<Query> part = Walk(disjunct, ctx, node.id());
      if (!part.ok()) return part;
      mapped.push_back(*std::move(part));
    }
    return Query::Or(std::move(mapped));
  }

  // Case 2: ∧ node with at least one non-leaf child.
  Span node(ctx.trace, "node.and", parent_span);
  if (node.detail()) node.AddAttr("query", query.ToString());
  std::unique_ptr<EdnfComputer> local;
  const EdnfComputer* ednf = ctx.shared_ednf;
  if (ednf == nullptr) {
    local = std::make_unique<EdnfComputer>(ctx.spec, query, ctx.stats, ctx.trace,
                                           node.id());
    ednf = local.get();
  }
  PSafePartition partition =
      PSafe(query.children(), *ednf, ctx.stats, ctx.trace, node.id());
  std::vector<Query> mapped_blocks;
  mapped_blocks.reserve(partition.blocks.size());
  for (const std::vector<int>& block : partition.blocks) {
    std::vector<Query> members;
    members.reserve(block.size());
    for (int index : block) {
      members.push_back(query.children()[static_cast<size_t>(index)]);
    }
    Query rewritten = [&] {
      if (members.size() <= 1) return Disjunctivize(members);
      Span rewrite(ctx.trace, "disjunctivize", node.id());
      Query out = Disjunctivize(members);
      if (ctx.stats != nullptr) ++ctx.stats->disjunctivize_calls;
      if (rewrite.detail()) {
        std::string label = "{";
        for (size_t i = 0; i < block.size(); ++i) {
          if (i > 0) label += ",";
          label += "C" + std::to_string(block[i] + 1);
        }
        label += "}";
        size_t disjuncts =
            out.kind() == NodeKind::kOr ? out.children().size() : 1;
        rewrite.AddAttr("label", std::move(label));
        rewrite.AddAttr("disjuncts", std::to_string(disjuncts));
      }
      return out;
    }();
    Result<Query> part = Walk(rewritten, ctx, node.id());
    if (!part.ok()) return part;
    mapped_blocks.push_back(*std::move(part));
  }
  return Query::And(std::move(mapped_blocks));
}

}  // namespace

Result<Query> Tdqm(const Query& query, const MappingSpec& spec,
                   TranslationStats* stats, ExactCoverage* coverage,
                   const TdqmOptions& options) {
  TdqmContext ctx{spec, stats, coverage, nullptr, options.trace};
  Span root(options.trace, "tdqm", options.parent_span);
  std::unique_ptr<EdnfComputer> shared;
  if (options.reuse_potential_matchings) {
    shared = std::make_unique<EdnfComputer>(spec, query, stats, options.trace,
                                            root.id());
    ctx.shared_ednf = shared.get();
  }
  return Walk(query, ctx, root.id());
}

}  // namespace qmap
