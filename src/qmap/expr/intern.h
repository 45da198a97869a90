#ifndef QMAP_EXPR_INTERN_H_
#define QMAP_EXPR_INTERN_H_

#include <cstdint>

namespace qmap {

/// Controls and introspection for the hash-consed query IR (DESIGN.md §9).
///
/// When interning is enabled (the default), Query::True/Leaf/And/Or and the
/// constraint interner canonicalize every node at construction against a
/// process-wide table: one shared node per distinct live subtree, so pointer
/// equality coincides with structural equality and every node carries a
/// precomputed 64-bit fingerprint. Entries are verified exactly on
/// fingerprint-bucket hits, so interning itself is collision-proof.
///
/// The constructors probe before they build: Leaf fingerprints its
/// constraint and looks for a leaf that prints the same, And/Or normalize
/// over borrowed child handles and look for a node with those children,
/// each under its shard's shared lock. A probe that finds its node
/// allocates nothing. Only a miss builds the node (and, for a leaf, interns
/// its constraint), outside any lock, then takes the shard's lock
/// exclusively, probes again and inserts.
///
/// The tables hold each entry only while something outside them references
/// it. They are sharded by fingerprint, and every insert also sweeps a few
/// buckets of its shard, freeing the entries nothing else references any
/// more; a stream of distinct queries therefore leaves a bounded table.
/// Lookups that find an existing node never sweep.
///
/// SetQueryInternEnabled(false) constructs plain un-interned nodes instead —
/// the oracle side of the equivalence tests. Fingerprints are computed
/// either way; only sharing and the pointer-equality guarantee are affected.
/// The toggle is not thread-safe against concurrent query construction.

/// Statistics of the process-wide intern tables, and of the parse memo in
/// front of them. A leaf found by the node-table probe counts a constraint
/// hit as well as a query hit, so the constraint counters cover every leaf
/// construction. A parse the memo answers constructs nothing, so it counts
/// no query or constraint hit. TranslationService exports every counter
/// here to its registry when it refreshes its gauges.
struct InternStats {
  uint64_t query_hits = 0;        // constructions resolved to an existing node
  uint64_t query_misses = 0;      // constructions that inserted a new node
  uint64_t query_nodes = 0;       // query nodes ever inserted (monotonic)
  uint64_t query_live = 0;        // query nodes currently in the table
  uint64_t constraint_hits = 0;   // leaf constraints resolved to existing
  uint64_t constraint_misses = 0; // leaf constraints newly interned
  uint64_t constraint_nodes = 0;  // constraints ever inserted (monotonic)
  uint64_t constraint_live = 0;   // constraints currently in the table
  uint64_t parse_memo_hits = 0;   // parses answered by the thread's memo
  uint64_t parse_memo_misses = 0; // parses (interning on) it did not answer
};

InternStats QueryInternStats();

/// Turns interning on or off (tests use it to build the un-interned oracle).
/// Not thread-safe against concurrent query construction.
void SetQueryInternEnabled(bool enabled);
bool QueryInternEnabled();

/// Internal: ParseQuery counts each parse it makes with interning on here,
/// as a hit when its per-thread memo answered it (parser.h) and a miss
/// otherwise. One relaxed atomic add, no lock.
void CountParseMemo(bool hit);

}  // namespace qmap

#endif  // QMAP_EXPR_INTERN_H_
