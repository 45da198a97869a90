#ifndef QMAP_CORE_FILTER_H_
#define QMAP_CORE_FILTER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "qmap/expr/query.h"

namespace qmap {

/// Tracks which original constraints were translated *exactly* (by a rule
/// not marked `inexact`), across every mapping context (SCM invocation) in
/// which they appeared.  A constraint is exactly covered only if every
/// context covered it exactly; a constraint that ever mapped to True or was
/// only covered by a relaxation rule stays in the residue filter.
///
/// When merging coverage across *sources* (Eq. 3: Q = F ∧ S_1(Q) ∧ ... ∧
/// S_n(Q)), a constraint in a conjunctive position that is fully realized
/// at any one source need not be re-checked by the mediator (Example 3:
/// [dept = cs] is handled entirely by source T2). For disjunctions the
/// per-constraint OR-merge is NOT sound — use MergedResidueFilter, which
/// demands a single witnessing source per ∨-node.
class ExactCoverage {
 public:
  /// AND-accumulates coverage of `c` within one translation.
  void Record(const Constraint& c, bool exact);

  /// True if `c` was recorded at least once and always exactly.
  bool IsExact(const Constraint& c) const;

  /// OR-merge across sources: `c` becomes exact if exact in either input.
  /// Only sound for constraints in conjunctive positions (see
  /// MergedResidueFilter for why); kept for leaf-level aggregation.
  void MergeAnySource(const ExactCoverage& other);

  /// The raw (constraint-fingerprint, exact) entries, sorted by fingerprint
  /// for a canonical order. Serialization hook for the persistent store
  /// (qmap/store): fingerprints are already the identity this class keys
  /// on, so coverage round-trips without the constraints themselves.
  const std::vector<std::pair<uint64_t, bool>>& Entries() const {
    return by_constraint_;
  }

  /// Re-adds one serialized entry, AND-accumulating like Record() so a
  /// replayed record merges exactly as the original sequence did.
  void RestoreEntry(uint64_t constraint_fingerprint, bool exact);

 private:
  // One entry per constraint fingerprint (printed-form identity without the
  // rendering), strictly increasing by fingerprint; value: true = exact so
  // far, false = inexact somewhere. A flat vector so that copying a cached
  // Translation costs one allocation. Fingerprints are trusted outright
  // here — a ~2^-64 collision could only merge the coverage bits of two
  // unrelated constraints.
  std::vector<std::pair<uint64_t, bool>> by_constraint_;
};

/// Computes the residue filter F for `original` (Eq. 2-3), given per-
/// constraint exact coverage of the translation(s).
///
/// Construction (sound given sound rules; see DESIGN.md §6):
///   f(True)         = True
///   f(leaf)         = True if the leaf is exactly covered, else the leaf
///   f(∧ children)   = ∧ f(child)                 — justified by Lemma 1:
///                     S(Q) ⊆ S(C_i) for every conjunct, so per-conjunct
///                     residues compose
///   f(∨ node)       = True if *all* leaves below are exactly covered,
///                     else the ∨ node unchanged     — disjunctions cannot
///                     be filtered piecemeal
///
/// The paper's Example 3 is reproduced: F = c (the `near` constraint), all
/// other constraints being exactly realized at some source.
Query ResidueFilter(const Query& original, const ExactCoverage& coverage);

/// The cross-source residue filter for the Eq. 3 composition
/// F ∧ S_1(Q) ∧ ... ∧ S_n(Q), given each surviving source's own coverage.
///
/// Dropping a node from F must be justified by a SINGLE source:
///   leaf    — some source translated it exactly in every context, so that
///             source's S_i(Q) enforces it (the leaf sits conjunctively in
///             every crossed conjunct of S_i(Q));
///   ∨ node  — some ONE source covers *all* leaves below exactly, so that
///             source's per-source identity F_i ∧ S_i(Q) ≡ Q enforces the
///             whole disjunction.
/// OR-merging coverage per-constraint first (MergeAnySource) and asking
/// AllLeavesExact of the blob is unsound for ∨ nodes: with a3 exact only at
/// S3 and a4 exact only at S2, each source widened a *different* disjunct,
/// and the conjunction of the widened translations can accept tuples the
/// disjunction rejects. Found by the randomized subsumption harness
/// (tests/subsumption_property_test.cc).
Query MergedResidueFilter(const Query& original,
                          const std::vector<const ExactCoverage*>& coverages);

}  // namespace qmap

#endif  // QMAP_CORE_FILTER_H_
