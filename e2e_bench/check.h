// The benchmark's federation, its independent reference, and the
// correctness gate every checked response passes through.
#ifndef QMAP_E2E_BENCH_CHECK_H_
#define QMAP_E2E_BENCH_CHECK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qmap/common/status.h"
#include "qmap/contexts/synthetic.h"
#include "qmap/mediator/mediator.h"
#include "qmap/rules/spec.h"

namespace e2e {

/// Six synthetic sources S0..S5 over a0..a7 (the dependent-pair sets of
/// bench/bench_service.cc) and one two-hop chain, registered as S6.
inline constexpr const char* kChainName = "S6";
std::vector<std::pair<std::string, qmap::SyntheticOptions>> SourceOptions();
qmap::SyntheticHop2Options ChainOptions();

/// Spec parsing, part of every set-up.
qmap::Result<std::vector<std::pair<std::string, qmap::MappingSpec>>>
ParseSourceSpecs();
qmap::Result<std::vector<qmap::MappingSpec>> ParseChainHops();

/// The serial reference: a Mediator over the same sources, with the chain
/// replaced by its ComposeSpecs spec.
qmap::Result<qmap::Mediator> MakeReferenceMediator();

/// What the gate compares: per-source mapped query and filter, and the
/// merged residue filter F, by fingerprint.
struct Digest {
  std::vector<std::pair<std::string, std::pair<uint64_t, uint64_t>>> sources;
  uint64_t filter = 0;
  bool operator==(const Digest&) const = default;
};
Digest DigestOf(const qmap::MediatorTranslation& translation);
/// DigestOf(translation) == digest, without allocating: runs on every hot
/// response inside the timed window.
bool Matches(const qmap::MediatorTranslation& translation, const Digest& digest);

/// Tally of the semantic check over seeded tuples.
struct SemanticTally {
  /// (source, tuple) pairs some S_i(Q) admits, and those of them Q rejects:
  /// the over-fetch the residue filter discards.
  uint64_t admitted = 0;
  uint64_t false_pos = 0;
  uint64_t violations = 0;
  std::string first_violation;
};

/// Evaluates `query` and `translation` over `num_tuples` tuples drawn from
/// the query's own value domain and converted by the synthetic converters
/// (hop 2 for the chain). Checks S_i(Q) ⊇ Q for every source and
/// Q ≡ F ∧ ⋀ S_i(Q) on every tuple.
void CheckSemantics(const qmap::Query& query,
                    const qmap::MediatorTranslation& translation,
                    uint64_t seed, int num_tuples, SemanticTally* tally);

/// Nodes in the per-source translations and filters of `translation`.
uint64_t CountOutputNodes(const qmap::MediatorTranslation& translation);

}  // namespace e2e

#endif  // QMAP_E2E_BENCH_CHECK_H_
