#ifndef QMAP_MEDIATOR_FEDERATION_H_
#define QMAP_MEDIATOR_FEDERATION_H_

#include <functional>
#include <string>
#include <vector>

#include "qmap/core/translator.h"
#include "qmap/relalg/ops.h"

namespace qmap {

/// A *union* integration (Section 2: "a view can be a union of SPJ
/// components; we can process each component separately and union the
/// results"): several sources each hold part of one logical collection in
/// their own vocabulary — the two-bookstore scenario of Example 1.
///
/// Each member declares how to translate queries (its mapping spec), how a
/// mediator tuple converts into its vocabulary (the data-conversion
/// direction, used to evaluate the pushed query against member data), and
/// optional target-side constraint semantics.
class FederatedCatalog {
 public:
  struct Member {
    std::string name;
    Translator translator;
    /// Converts a mediator tuple to the member's vocabulary.
    std::function<Tuple(const Tuple&)> convert;
    /// Optional member-specific constraint semantics (e.g. Amazon author
    /// matching); may be nullptr.
    const ConstraintSemantics* semantics = nullptr;
    /// The member's data, stored in *mediator* vocabulary (the substrate
    /// stands in for a live source holding the converted form).
    TupleSet data;
  };

  void AddMember(Member member) { members_.push_back(std::move(member)); }
  const std::vector<Member>& members() const { return members_; }

  /// Per-member result detail from one federated query.
  struct MemberResult {
    std::string name;
    Query pushed;        // S_i(Q)
    Query filter;        // F_i
    size_t raw_hits = 0; // tuples the member returned before filtering
    TupleSet tuples;     // after the filter
  };
  struct FederatedResult {
    std::vector<MemberResult> per_member;
    TupleSet combined;  // union of the filtered member results
  };

  /// Translates Q for every member, queries each (push S_i(Q) against the
  /// member's converted data, filter with F_i), and unions the results.
  /// The first member whose translation fails fails the call.
  Result<FederatedResult> Query(const qmap::Query& query) const;

  /// Ground truth: Q evaluated directly over the union of all member data
  /// in mediator vocabulary.  Query().combined must equal this (Eq. 3).
  TupleSet QueryDirect(const qmap::Query& query) const;

 private:
  std::vector<Member> members_;
};

}  // namespace qmap

#endif  // QMAP_MEDIATOR_FEDERATION_H_
