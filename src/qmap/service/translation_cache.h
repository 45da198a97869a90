#ifndef QMAP_SERVICE_TRANSLATION_CACHE_H_
#define QMAP_SERVICE_TRANSLATION_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "qmap/core/translator.h"

namespace qmap {

class Counter;
class MetricsRegistry;

struct TranslationCacheOptions {
  /// Total entry budget across all shards (per-shard budget is the ceiling
  /// of capacity/shards, at least 1).
  size_t capacity = 1024;
  /// Number of independently locked shards. More shards = less contention
  /// under concurrent translation; eviction is LRU *within* a shard.
  size_t shards = 8;
};

struct TranslationCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t updates = 0;  // Puts that overwrote an existing key
  uint64_t evictions = 0;
};

/// The typed cache key: three 64-bit fingerprints identifying (a) the
/// translation context — source name and option flags, (b) the **rule-set
/// version** — the source's MappingSpec::fingerprint() mixed with its
/// SourceCapabilities::Fingerprint(), and (c) the normalized query
/// (Query::fingerprint()). TranslationService composes these without
/// rendering any query text (see docs/ALGORITHMS.md, "The service layer").
///
/// The rule-set half is what makes cached translations version-safe: when a
/// source's rules or capabilities change, every key minted under the old
/// mapping differs in `rule_set`, so stale entries — in this RAM tier and in
/// the persistent qmap/store tier, which shares this key — become
/// unreachable rather than being served (see DESIGN.md §10). 192 bits
/// total; fingerprints are trusted without verification per the collision
/// policy of DESIGN.md §9.
struct TranslationCacheKey {
  uint64_t source = 0;
  uint64_t rule_set = 0;
  uint64_t query = 0;

  friend bool operator==(const TranslationCacheKey& a,
                         const TranslationCacheKey& b) = default;
};

/// Hash functor shared by the RAM cache shards and the persistent store's
/// in-memory index. The halves are already FNV outputs; mixing is enough.
struct TranslationCacheKeyHash {
  size_t operator()(const TranslationCacheKey& k) const {
    uint64_t h = k.source ^ (k.rule_set * 0xff51afd7ed558ccdull) ^
                 (k.query * 0x9e3779b97f4a7c15ull);
    return static_cast<size_t>(h ^ (h >> 29));
  }
};

/// A thread-safe sharded LRU map from TranslationCacheKey to completed
/// Translations.
///
/// Get/Put copy the Translation value. Translation holds Query trees behind
/// shared immutable nodes with atomic refcounts, so copies handed to
/// concurrent callers are safe to use and destroy independently.
class TranslationCache {
 public:
  explicit TranslationCache(TranslationCacheOptions options = {});

  TranslationCache(const TranslationCache&) = delete;
  TranslationCache& operator=(const TranslationCache&) = delete;

  /// Mirrors hit/miss/insertion/update/eviction counts into `registry` as
  /// the qmap_cache_*_total counters, in addition to the internal stats().
  /// Setup-phase only: not thread-safe against concurrent Get/Put. Null
  /// detaches (the default, no-cost path: a single pointer check per
  /// operation).
  ///
  /// Lifetime: the registry must outlive either the cache or the
  /// attachment. An owner destroying the registry first must sever the
  /// bridge with DetachMetricsIf(&registry) beforehand — the same
  /// detach-on-dtor discipline the intern tables use (see
  /// qmap/expr/intern.h); TranslationService does this for the registry it
  /// is configured with.
  void AttachMetrics(MetricsRegistry* registry);

  /// Detaches the metric bridge only if `registry` is the currently
  /// attached one, so a stale owner cannot clobber a newer attachment.
  void DetachMetricsIf(MetricsRegistry* registry);

  /// Returns a copy of the entry and refreshes its recency, or nullopt.
  std::optional<Translation> Get(const TranslationCacheKey& key);

  /// Inserts or overwrites `key`, making it the shard's most recent entry;
  /// evicts the shard's least recent entry when over budget. Returns whether
  /// this Put evicted, so callers can attribute evictions exactly.
  bool Put(const TranslationCacheKey& key, Translation value);

  /// Counters aggregated over all shards (a consistent-enough snapshot:
  /// each shard is read under its lock, shards are read in sequence).
  TranslationCacheStats stats() const;

  /// Current number of entries across all shards.
  size_t size() const;

  /// Drops every entry (counters are kept).
  void Clear();

 private:
  struct Entry {
    TranslationCacheKey key;
    Translation value;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<TranslationCacheKey, std::list<Entry>::iterator,
                       TranslationCacheKeyHash>
        index;
    TranslationCacheStats stats;
  };

  Shard& ShardFor(const TranslationCacheKey& key);

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t per_shard_capacity_;

  // Optional metric bridges (see AttachMetrics); null when detached.
  MetricsRegistry* attached_registry_ = nullptr;
  Counter* hits_counter_ = nullptr;
  Counter* misses_counter_ = nullptr;
  Counter* insertions_counter_ = nullptr;
  Counter* updates_counter_ = nullptr;
  Counter* evictions_counter_ = nullptr;
};

}  // namespace qmap

#endif  // QMAP_SERVICE_TRANSLATION_CACHE_H_
