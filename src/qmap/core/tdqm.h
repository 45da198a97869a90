#ifndef QMAP_CORE_TDQM_H_
#define QMAP_CORE_TDQM_H_

#include "qmap/core/scm.h"

namespace qmap {

struct TdqmOptions {
  /// Section 7.1.3's optimization: compute the potential matchings
  /// M_p = M(C(Q), K) once at the root (as Procedure EDNF does anyway) and
  /// reuse them for every safety check *and* every SCM base case, instead
  /// of re-matching rules per node.  Semantically identical; benchmarked by
  /// bench_translation's reuse-ablation series.
  bool reuse_potential_matchings = true;

  /// Observability (qmap/obs): when `trace` is attached, the traversal
  /// records a "tdqm" span under `parent_span` with nested node.* / psafe /
  /// scm / disjunctivize spans — the taxonomy of docs/OBSERVABILITY.md.
  /// Null trace = the no-op path (no clock reads).  Not owned.
  Trace* trace = nullptr;
  uint64_t parent_span = 0;
};

/// Algorithm TDQM (Figure 8): maps an arbitrary ∧/∨ query by top-down
/// traversal, rewriting query structure *locally and only when necessary*:
///
///   Case 1 — ∨ node: disjuncts are always separable; recurse and ∨ the
///            results.
///   Case 2 — ∧ node with non-leaf children: Algorithm PSafe partitions the
///            conjuncts into safe minimal blocks (Theorem 6); each block is
///            Disjunctivized one level and recursed into.
///   Case 3 — simple conjunction: Algorithm SCM (the base case).
///
/// With a sound and complete specification the output is the minimal
/// subsuming mapping (Theorem 2), equal in meaning to Algorithm DNF's but
/// typically far more compact (Section 8: up to 2^n× smaller).
Result<Query> Tdqm(const Query& query, const MappingSpec& spec,
                   TranslationStats* stats = nullptr,
                   ExactCoverage* coverage = nullptr,
                   const TdqmOptions& options = {});

}  // namespace qmap

#endif  // QMAP_CORE_TDQM_H_
