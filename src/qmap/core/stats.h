#ifndef QMAP_CORE_STATS_H_
#define QMAP_CORE_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "qmap/rules/matcher.h"

namespace qmap {

/// The single source of truth for the counters of TranslationStats.
/// X(name, expr): `name` is the external identifier (ToString keys, trace
/// JSON keys, metric suffixes); `expr` is the member access path within a
/// TranslationStats object. MergeFrom, ToString, ForEachField and FieldNames
/// all expand from this table, so a counter added here is automatically
/// merged, printed, serialized, and covered by the completeness test in
/// tests/stats_test.cc — it cannot silently drift out of any of them.
#define QMAP_TRANSLATION_STATS_FIELDS(X)            \
  X(pattern_attempts, match.pattern_attempts)       \
  X(matchings_found, match.matchings_found)         \
  X(index_hits, match.index_hits)                   \
  X(pattern_attempts_saved, match.pattern_attempts_saved) \
  X(compiled_hits, match.compiled_hits)             \
  X(memo_hits, memo_hits)                           \
  X(memo_misses, memo_misses)                       \
  X(scm_calls, scm_calls)                           \
  X(submatchings_removed, submatchings_removed)     \
  X(matchings_applied, matchings_applied)           \
  X(dnf_disjuncts, dnf_disjuncts)                   \
  X(disjunctivize_calls, disjunctivize_calls)       \
  X(psafe_calls, psafe_calls)                       \
  X(ednf_disjuncts_checked, ednf_disjuncts_checked) \
  X(cross_matchings, cross_matchings)               \
  X(candidate_blocks, candidate_blocks)             \
  X(cache_hits, cache_hits)                         \
  X(cache_misses, cache_misses)                     \
  X(store_hits, store_hits)                         \
  X(cache_evictions, cache_evictions)               \
  X(parallel_tasks, parallel_tasks)                 \
  X(retries, retries)                               \
  X(deadline_hits, deadline_hits)                   \
  X(breaker_rejections, breaker_rejections)         \
  X(degraded_sources, degraded_sources)             \
  X(failed_sources, failed_sources)                 \
  X(translate_ns, translate_ns)                     \
  X(queue_wait_ns, queue_wait_ns)

/// Counters accumulated during one translation. These expose the cost terms
/// the paper analyzes: the N·P·R rule-matching work and M² sub-matching
/// suppression of Section 4.4, and the number of disjuncts examined by the
/// safety machinery (the 2^{ne} vs 2^{nk} comparison of Section 8).
struct TranslationStats {
  MatchCounters match;

  // Always 0: rule matching keeps no memo (every match calls MatchSpec, and
  // TDQM's reuse of the root potential matchings M_p is the only sharing).
  // Kept only because e2e_bench/ reads both for its core.memo_hit_frac
  // metric; both go once that metric is dropped.
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;

  uint64_t scm_calls = 0;
  uint64_t submatchings_removed = 0;
  uint64_t matchings_applied = 0;

  uint64_t dnf_disjuncts = 0;           // Algorithm DNF: disjuncts mapped
  uint64_t disjunctivize_calls = 0;     // local structure rewrites performed
  uint64_t psafe_calls = 0;
  uint64_t ednf_disjuncts_checked = 0;  // safety-check terms examined
  uint64_t cross_matchings = 0;
  uint64_t candidate_blocks = 0;

  // Service-layer counters (qmap/service): per-source translations answered
  // from / missed by the shared translation cache, answered from the
  // persistent store tier (qmap/store) after a RAM miss, evictions caused by
  // this call's own cache fills, and per-source cache misses fanned out to
  // the thread pool. All zero for a bare Translator/Mediator run.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t store_hits = 0;
  uint64_t cache_evictions = 0;
  uint64_t parallel_tasks = 0;

  // Resilience counters (qmap/service/resilience.h): retry attempts beyond
  // the first, per-source deadline expiries, circuit-breaker fast
  // rejections, and sources that answered degraded / were dropped into a
  // PartialResult. All zero when resilience is off.
  uint64_t retries = 0;
  uint64_t deadline_hits = 0;
  uint64_t breaker_rejections = 0;
  uint64_t degraded_sources = 0;
  uint64_t failed_sources = 0;

  // Timing (observability): wall time spent inside Translator::Translate,
  // and — when a TranslationService runs the per-source work on its pool
  // with tracing active — time the task waited in the pool queue. Merged by
  // summation, so a MediatorTranslation's stats carry the *total* per-source
  // translation time, which can exceed wall time under parallelism.
  uint64_t translate_ns = 0;
  uint64_t queue_wait_ns = 0;

  void MergeFrom(const TranslationStats& other);
  std::string ToString() const;

  /// Calls fn(name, value) for every counter in the field table, in table
  /// order. Used by the trace serializer and the metrics bridge.
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
#define QMAP_STATS_VISIT(name, expr) fn(#name, expr);
    QMAP_TRANSLATION_STATS_FIELDS(QMAP_STATS_VISIT)
#undef QMAP_STATS_VISIT
  }

  /// Mutable variant: fn(name, uint64_t&).
  template <typename Fn>
  void ForEachFieldMutable(Fn&& fn) {
#define QMAP_STATS_VISIT(name, expr) fn(#name, expr);
    QMAP_TRANSLATION_STATS_FIELDS(QMAP_STATS_VISIT)
#undef QMAP_STATS_VISIT
  }

  /// Every counter name in the field table, in table order.
  static std::vector<const char*> FieldNames();
};

}  // namespace qmap

#endif  // QMAP_CORE_STATS_H_
