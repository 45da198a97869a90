#ifndef QMAP_CORE_EDNF_H_
#define QMAP_CORE_EDNF_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "qmap/core/stats.h"
#include "qmap/rules/matcher.h"

namespace qmap {

class Trace;

/// A set of constraints identified by their ids in a ConstraintTable, kept
/// sorted ascending.  The empty set plays the role of the paper's ε
/// ("don't care") placeholder: conjoining with ε changes nothing (x·ε = x),
/// which the set-union representation gives for free.
using ConstraintSet = std::vector<int>;

/// True if every element of `sub` is in `super` (both sorted).
bool SetContains(const ConstraintSet& super, const ConstraintSet& sub);
/// True if `a` and `b` share an element (both sorted).
bool SetsIntersect(const ConstraintSet& a, const ConstraintSet& b);
/// Sorted union.
ConstraintSet SetUnion(const ConstraintSet& a, const ConstraintSet& b);

/// Cross product of per-child EDNF disjunct lists (Figure 10, line 12):
/// every way of choosing one disjunct per child, each choice unioned into a
/// single constraint set. An *empty* child disjunct list denotes an
/// unsatisfiable child, so the whole product is empty — callers must handle
/// the empty case rather than index into children (the unguarded cross
/// product used to read out of bounds there). Zero children yield {ε}, the
/// identity of conjunction.
std::vector<ConstraintSet> CrossEdnfDisjuncts(
    const std::vector<std::vector<ConstraintSet>>& parts);

/// Numbers the distinct constraints of a query — C(Q) with ids.
class ConstraintTable {
 public:
  explicit ConstraintTable(const Query& root);

  /// Id of `c`, or -1 when `c` does not occur in the root query.
  int IdOf(const Constraint& c) const;
  const std::vector<Constraint>& constraints() const { return constraints_; }
  std::vector<Constraint> Materialize(const ConstraintSet& set) const;

 private:
  std::vector<Constraint> constraints_;
  // Fingerprint-keyed index; the bucket (nearly always one id) is verified
  // against constraints_ by printed form, so collisions cannot mis-number.
  std::unordered_map<uint64_t, std::vector<int>> index_;
};

/// Procedure EDNF (Figure 10): computes the *essential DNF* annotations used
/// by the safety checks and Algorithm PSafe.
///
/// The potential matchings M_p = M(C(Q), K) are computed once over all the
/// constraints of the root query, regardless of their positions (the exact
/// matchings of any subconjunction X are then {m ∈ M_p : m ⊆ X}, because
/// rule matching depends only on the constraints in the matching itself).
///
/// Ednf(q) returns De(q) as a disjunct list of constraint sets, with useless
/// terms nullified to ε (the empty set) per the nullifying rules of
/// Figure 10 step 2 and duplicates merged (x ∨ x = x).  When a query has no
/// constraint dependencies at all, every annotation collapses to a single ε
/// and the safety check costs nothing (Section 8).
class EdnfComputer {
 public:
  /// `trace`/`parent_span`, when given, record the potential-matchings
  /// computation as an "ednf.match" span (see docs/OBSERVABILITY.md).
  EdnfComputer(const MappingSpec& spec, const Query& root,
               TranslationStats* stats = nullptr, Trace* trace = nullptr,
               uint64_t parent_span = 0);

  const ConstraintTable& table() const { return table_; }

  /// Deduplicated constraint sets of the potential matchings, including
  /// singletons.
  const std::vector<ConstraintSet>& potential_matchings() const {
    return potential_matchings_;
  }

  /// The full potential matchings M_p = M(C(Q), K), bindings included, with
  /// constraint indices referring to table() order.  Section 7.1.3: "we can
  /// reuse the potential matchings M_p computed in Procedure EDNF in the
  /// actual mapping process" — see ScmFromMatchings / TdqmOptions.
  const std::vector<Matching>& all_matchings() const { return all_matchings_; }

  /// Exact matchings of the subconjunction `constraints`: the potential
  /// matchings wholly contained in it.
  std::vector<ConstraintSet> MatchingsWithin(const ConstraintSet& constraints) const;

  /// The full matchings applicable to `conjunction` (every constraint of
  /// which must be in the table), with indices re-based to `conjunction`'s
  /// positions.  Returns nullopt if some constraint is unknown to the table
  /// (callers then fall back to fresh matching).
  std::optional<std::vector<Matching>> MatchingsFor(
      const std::vector<Constraint>& conjunction) const;

  /// De(q) — see class comment.  `q` must be a subquery of the root (its
  /// constraints must appear in the table).
  std::vector<ConstraintSet> Ednf(const Query& q) const;

 private:
  std::vector<ConstraintSet> Simplify(std::vector<ConstraintSet> disjuncts) const;

  ConstraintTable table_;
  std::vector<ConstraintSet> potential_matchings_;
  std::vector<Matching> all_matchings_;
  TranslationStats* stats_;
};

}  // namespace qmap

#endif  // QMAP_CORE_EDNF_H_
