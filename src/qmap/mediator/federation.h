#ifndef QMAP_MEDIATOR_FEDERATION_H_
#define QMAP_MEDIATOR_FEDERATION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qmap/core/translator.h"
#include "qmap/relalg/ops.h"
#include "qmap/service/resilience.h"
#include "qmap/service/source_transport.h"

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
    /// Where this member's translation runs. Left null (the common case),
    /// AddMember wraps `translator` into an InProcessTransport; set
    /// explicitly (e.g. a RemoteTransport) to translate on a shard worker —
    /// `translator` is then ignored by Query().
    std::shared_ptr<SourceTransport> transport;
    /// Converts a mediator tuple to the member's vocabulary.
    std::function<Tuple(const Tuple&)> convert;
    /// Optional member-specific constraint semantics (e.g. Amazon author
    /// matching); may be nullptr.
    const ConstraintSemantics* semantics = nullptr;
    /// The member's data, stored in *mediator* vocabulary (the substrate
    /// stands in for a live source holding the converted form).
    TupleSet data;
  };

  void AddMember(Member member) {
    if (member.transport == nullptr) {
      member.transport = std::make_shared<InProcessTransport>(member.translator);
    }
    members_.push_back(std::move(member));
  }
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
    /// Members dropped (their tuples are missing from `combined`) or
    /// answering degraded (their tuples are complete: the widened pushed
    /// query over-fetches and F_i filters the excess). Union integration
    /// degrades gracefully: every surviving member's contribution is exact.
    PartialResult partial;
  };

  /// Translates Q for every member, queries each (push S_i(Q) against the
  /// member's converted data, filter with F_i), and unions the results.
  ///
  /// With resilience enabled (SetResilience), each member's translate runs
  /// under retry/breaker/deadline guards, and per-tuple data conversion is
  /// fault-injectable under the key "<member>.convert"; failing members are
  /// dropped into `partial` instead of failing the query. The drop and
  /// min_sources decisions are PartialResultGather's (mediator.h), shared
  /// with Mediator and TranslationService. Member names key the gathered
  /// translations, so they must be distinct.
  Result<FederatedResult> Query(const qmap::Query& query) const;

  /// Enables graceful degradation for Query (see ResilienceOptions). Null
  /// clock/injector/metrics mean system clock / no faults / no metrics;
  /// non-null pointers must outlive the catalog.
  void SetResilience(const ResilienceOptions& options,
                     ResilienceClock* clock = nullptr,
                     FaultInjector* injector = nullptr,
                     MetricsRegistry* metrics = nullptr);
  ResilienceManager* resilience() const { return resilience_.get(); }

  /// Ground truth: Q evaluated directly over the union of all member data
  /// in mediator vocabulary.  Query().combined must equal this (Eq. 3).
  TupleSet QueryDirect(const qmap::Query& query) const;

 private:
  std::vector<Member> members_;
  std::shared_ptr<ResilienceManager> resilience_;
};

}  // namespace qmap

#endif  // QMAP_MEDIATOR_FEDERATION_H_
