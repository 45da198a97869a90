#ifndef QMAP_RULES_MATCHER_H_
#define QMAP_RULES_MATCHER_H_

#include <cstdint>
#include <vector>

#include "qmap/rules/spec.h"

namespace qmap {

/// A matching of a rule in a simple conjunction (Section 4.1): the subset of
/// constraints (as sorted indices into the input conjunction) that together
/// satisfy the rule's head, plus the variable bindings established.
struct Matching {
  std::vector<int> constraint_indices;  // sorted ascending, no duplicates
  Bindings bindings;
  /// The matched rule. Points into the MappingSpec the matching was produced
  /// from: valid only while that spec is alive.
  const Rule* rule = nullptr;
  /// Self-contained copies for inspection after the spec is gone.
  std::string rule_name;
  bool rule_exact = true;

  /// True if this matching's constraint set is a strict subset of `other`'s
  /// (the sub-matching test of Algorithm SCM step 2).
  bool IsStrictSubsetOf(const Matching& other) const;

  std::string ToString() const;
};

/// Counters exposed to benchmarks (the N·P·R cost term of Section 4.4).
struct MatchCounters {
  uint64_t pattern_attempts = 0;  // pattern-vs-constraint match trials
  uint64_t matchings_found = 0;
  /// Pattern-slot lookups the compiled engine answered from a literal
  /// (attribute, op) candidate bucket (wildcard-bucket lookups are not
  /// counted). A shared prefix edge counts once per conjunction, not once
  /// per rule sharing it. Always 0 on the naive path.
  uint64_t index_hits = 0;
  /// Pattern trials the buckets avoided relative to the naive matcher: at
  /// each visited pattern slot, the naive path would have tried every
  /// not-yet-used constraint; the compiled engine tries only the slot's
  /// bucket. A child edge skipped outright (an empty bucket) counts one
  /// naive sweep — a lower bound on the recursion the naive matcher would
  /// have done for the rules beneath it. Always 0 on the naive path.
  uint64_t pattern_attempts_saved = 0;
  /// Conjunctions answered by the compiled discrimination-DAG engine.
  uint64_t compiled_hits = 0;
};

/// The two implementations of MatchSpec, selectable at runtime: the
/// production engine and its slow reference oracle. Both emit byte-identical
/// matchings in byte-identical order; they differ only in cost
/// (tests/matcher_equiv_test.cc, tests/compiled_matcher_test.cc).
enum class MatchEngine {
  kNaive,     // every rule tries every constraint at every pattern slot
  kCompiled,  // the spec's compiled discrimination DAG (rule_program.h)
};

/// Canonical lowercase name: "naive" / "compiled".
const char* MatchEngineName(MatchEngine engine);

/// The single decode of the engine environment variable — every consumer
/// (matcher dispatch, benches, service status pages) goes through this:
///   QMAP_MATCH_ENGINE=naive|compiled  picks a path explicitly;
///   unset or any other value          kCompiled.
/// Pure: reads the environment on every call (the process-wide engine is
/// initialized from it once, at first use).
MatchEngine MatchEngineFromEnv();

/// The engine MatchSpec currently dispatches to (initialized from
/// MatchEngineFromEnv at first use) / programmatic override of it. The
/// setter is for tests and A/B benchmark runs; it is not thread-safe
/// against concurrent MatchSpec calls.
MatchEngine CurrentMatchEngine();
void SetMatchEngine(MatchEngine engine);

/// Finds M(Q̂, R): all matchings of `rule` in the conjunction `constraints`.
/// Matchings are deduplicated by (constraint set, bindings).
std::vector<Matching> MatchRule(const Rule& rule,
                                const std::vector<Constraint>& constraints,
                                const FunctionRegistry& registry,
                                MatchCounters* counters = nullptr);

/// Finds M(Q̂, K) = ∪_R M(Q̂, R) over all rules of `spec`.
///
/// Dispatches to CurrentMatchEngine(): by default the compiled
/// discrimination DAG (spec.compiled_plan(); see qmap/rules/rule_program.h),
/// with the naive reference selectable via QMAP_MATCH_ENGINE /
/// SetMatchEngine. Both produce byte-identical matchings in byte-identical
/// order, verified by tests/matcher_equiv_test.cc and
/// tests/compiled_matcher_test.cc.
std::vector<Matching> MatchSpec(const MappingSpec& spec,
                                const std::vector<Constraint>& constraints,
                                MatchCounters* counters = nullptr);

/// The naive reference path: every rule tries every constraint at every
/// pattern position. The test oracle, kept callable directly for A/B
/// benchmarks and the matcher equivalence suites.
std::vector<Matching> MatchSpecNaive(const MappingSpec& spec,
                                     const std::vector<Constraint>& constraints,
                                     MatchCounters* counters = nullptr);

}  // namespace qmap

#endif  // QMAP_RULES_MATCHER_H_
