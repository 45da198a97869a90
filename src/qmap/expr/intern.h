#ifndef QMAP_EXPR_INTERN_H_
#define QMAP_EXPR_INTERN_H_

#include <cstdint>

namespace qmap {

class MetricsRegistry;

/// Controls and introspection for the hash-consed query IR (DESIGN.md §9).
///
/// When interning is enabled (the default), Query::True/Leaf/And/Or and the
/// constraint interner canonicalize every node at construction against a
/// process-wide table: one shared node per distinct subtree, so pointer
/// equality coincides with structural equality and every node carries a
/// precomputed 64-bit fingerprint. The tables live for the process lifetime
/// and are never evicted; entries are verified exactly
/// on fingerprint-bucket hits, so interning itself is collision-proof.
///
/// Set the QMAP_DISABLE_INTERN environment variable (any value, checked once
/// at first use) or call SetQueryInternEnabled(false) to construct plain
/// un-interned nodes instead — used by the A/B benchmarks and the
/// equivalence tests. Fingerprints are computed either way; only sharing and
/// the pointer-equality guarantee are affected. The toggle is not
/// thread-safe against concurrent query construction.

/// Cumulative statistics of the process-wide intern tables.
struct InternStats {
  uint64_t query_hits = 0;        // constructions resolved to an existing node
  uint64_t query_misses = 0;      // constructions that inserted a new node
  uint64_t query_nodes = 0;       // distinct nodes currently in the table
  uint64_t constraint_hits = 0;   // leaf constraints resolved to existing
  uint64_t constraint_misses = 0; // leaf constraints newly interned
  uint64_t constraint_nodes = 0;  // distinct constraints currently in table
};

InternStats QueryInternStats();

/// Programmatic override of the QMAP_DISABLE_INTERN toggle (tests and A/B
/// benchmark runs). Not thread-safe against concurrent query construction.
void SetQueryInternEnabled(bool enabled);
bool QueryInternEnabled();

/// Bridges intern-table activity into `registry` as monotonic counters:
///   qmap_intern_query_hits_total / qmap_intern_query_nodes_total
///   qmap_intern_constraint_hits_total / qmap_intern_constraint_nodes_total
/// Current totals are backfilled at attach time, so attaching after warm-up
/// still reports lifetime values. Pass nullptr to detach. The registry must
/// outlive all query construction (or a subsequent AttachInternMetrics).
void AttachInternMetrics(MetricsRegistry* registry);

/// Detaches intern metrics only if `registry` is the currently attached one.
/// Owners of short-lived registries (TranslationService) call this on
/// destruction so the global bridge never dangles into a freed registry,
/// without clobbering a newer attachment.
void DetachInternMetricsIf(MetricsRegistry* registry);

}  // namespace qmap

#endif  // QMAP_EXPR_INTERN_H_
