#ifndef QMAP_STORE_TRANSLATION_STORE_H_
#define QMAP_STORE_TRANSLATION_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>

#include "qmap/service/translation_cache.h"
#include "qmap/store/record_log.h"

namespace qmap {

class Counter;
class MetricsRegistry;

/// Configuration for the persistent tier (see TranslationStore).
struct StoreOptions {
  /// Path of the record log. At the service level an empty path disables
  /// the disk tier entirely.
  std::string path;
  /// fsync after every Put. Off by default: the log is torn-tail safe
  /// either way (a crash loses at most the unsynced suffix, never corrupts
  /// the prefix), so most deployments prefer throughput and rely on the
  /// compaction/close syncs.
  bool sync_each_put = false;
  /// Compaction trigger: rewrite the log once it exceeds `min_bytes` AND
  /// more than `waste` of it is dead (superseded record versions).
  size_t compaction_min_bytes = 4u << 20;
  double compaction_waste = 0.5;
  /// Run triggered compactions on the store's background thread. Off =
  /// compact inline in the Put that crossed the threshold (deterministic,
  /// used by tests).
  bool background_compaction = true;
  /// Disk budget for *live* records (0 = unbounded). When the live set
  /// outgrows it, the next compaction evicts least-recently-promoted
  /// entries — oldest promotion first, where a promotion is the Put that
  /// wrote the record or a Get hit that lifted it into the RAM cache —
  /// until the survivors fit. The store is a cache of recomputable
  /// translations, so eviction costs only a future re-translation.
  size_t max_live_bytes = 0;
};

/// Monotonic counters over the store's lifetime (mirrored into
/// qmap_store_* metrics when attached; see docs/OBSERVABILITY.md).
struct StoreStats {
  uint64_t hits = 0;            // Get answered with a stored translation
  uint64_t negative_hits = 0;   // Get answered with a stored failure
  uint64_t misses = 0;          // Get found nothing
  uint64_t puts = 0;            // new keys persisted
  uint64_t updates = 0;         // existing keys superseded
  uint64_t negative_puts = 0;   // failure records persisted
  uint64_t replayed_records = 0;   // entries replayed into a RAM cache
  uint64_t recovered_records = 0;  // intact records indexed at Open
  uint64_t dropped_records = 0;    // checksum-valid but undecodable records
  uint64_t truncated_bytes = 0;    // torn-tail bytes cut off at Open
  uint64_t recovery_ns = 0;        // wall time of the Open scan
  uint64_t compactions = 0;
  uint64_t compaction_bytes_reclaimed = 0;
  uint64_t evicted_records = 0;  // live records dropped by the byte budget
  uint64_t evicted_bytes = 0;
  // Point-in-time gauges.
  uint64_t live_records = 0;
  uint64_t log_bytes = 0;
  uint64_t dead_bytes = 0;
};

/// The persistent tier under the sharded LRU TranslationCache: an
/// append-only checksummed record log (qmap/store/record_log.h) plus an
/// in-memory index from TranslationCacheKey to log location, with
/// background compaction — the tree→dump→merge pattern of DESIGN.md §10.
///
/// Records are keyed by the same 192-bit {context, rule-set, query}
/// fingerprint key as the RAM tier, so versioned invalidation is
/// structural: entries written under an old rule set are unreachable the
/// moment the spec or capability fingerprint changes, and compaction
/// eventually reclaims them. Positive records carry the full Translation
/// (mapped query, residue filter, exact coverage) in the parseable text
/// round-trip encoding, so a replayed translation is byte-identical to the
/// one a cold run would produce; negative records carry a permanent
/// failure Status.
///
/// Thread safety: all public methods are safe to call concurrently; the
/// index and log writes are serialized by one mutex (the disk tier sits
/// behind the RAM tier, which absorbs the hot-path traffic), while
/// compaction streams the committed log prefix outside the lock.
class TranslationStore {
 public:
  /// Opens (creating if absent) the store, recovering its index from the
  /// log: torn tails are truncated, superseded versions counted as dead
  /// bytes, and the scan time recorded as recovery_ns. A leftover
  /// mid-compaction temp file from a crashed process is discarded.
  static Result<std::unique_ptr<TranslationStore>> Open(StoreOptions options);

  /// Joins the compaction thread and syncs the log.
  ~TranslationStore();
  TranslationStore(const TranslationStore&) = delete;
  TranslationStore& operator=(const TranslationStore&) = delete;

  /// Mirrors store activity into `registry` as qmap_store_* counters and
  /// the qmap_store_recovery_ns histogram (recovery values are backfilled
  /// at attach, since recovery ran before any registry could be attached).
  /// Same lifetime discipline as TranslationCache::AttachMetrics: attach is
  /// setup-phase only, and an owner destroying the registry first severs
  /// the bridge with DetachMetricsIf.
  void AttachMetrics(MetricsRegistry* registry);
  void DetachMetricsIf(MetricsRegistry* registry);

  /// Looks `key` up in the persistent tier. nullopt = miss; a value holds
  /// either the stored Translation or the stored negative-result Status.
  std::optional<Result<Translation>> Get(const TranslationCacheKey& key);

  /// Persists a completed translation (insert or supersede). The caller
  /// enforces the degraded-never-persisted invariant — a stored entry must
  /// be the exact mapping, never a widened one (docs/ROBUSTNESS.md).
  Status Put(const TranslationCacheKey& key, const Translation& value);

  /// Persists a permanent failure for `key`.
  Status PutNegative(const TranslationCacheKey& key, const Status& failure);

  /// Replays live positive records into `cache` (most recently written
  /// last, so they end up most recent in the LRU). `filter`, when set,
  /// selects which keys to replay — the service passes a predicate that
  /// keeps only entries belonging to its registered sources under their
  /// current rule-set fingerprints. Returns the number replayed.
  size_t ReplayInto(
      TranslationCache& cache,
      const std::function<bool(const TranslationCacheKey&)>& filter = nullptr);

  /// Rewrites the log down to its live records (latest version per key,
  /// negatives included) and swaps it in atomically via rename. Runs
  /// automatically when the waste threshold trips; exposed for tests and
  /// operational tooling.
  Status CompactNow();

  /// Blocks until a pending background compaction kick (if any) finished.
  void WaitForIdleCompaction();

  StoreStats stats() const;
  size_t num_entries() const;
  const StoreOptions& options() const { return options_; }

 private:
  struct Location {
    uint64_t offset = 0;
    uint32_t frame_bytes = 0;
    bool negative = false;
    /// Promotion clock for the eviction policy: bumped when the record is
    /// written and when a Get hit promotes it into the RAM tier, so
    /// compaction under a max_live_bytes budget drops the entries whose
    /// promotion is oldest. Recovery assigns seqs in log order (oldest
    /// record = oldest promotion), which is exactly the write order.
    uint64_t seq = 0;
  };
  using Index =
      std::unordered_map<TranslationCacheKey, Location, TranslationCacheKeyHash>;

  explicit TranslationStore(StoreOptions options)
      : options_(std::move(options)) {}

  /// Indexes one decoded-key record during recovery/catch-up scans.
  void IndexRecordLocked(const TranslationCacheKey& key, bool negative,
                         uint64_t offset, uint64_t frame_bytes);
  Status AppendLocked(const TranslationCacheKey& key, bool negative,
                      const std::string& payload);
  bool WantsCompactionLocked() const;
  void MaybeCompactInline();
  void KickCompaction();
  void CompactorLoop();

  const StoreOptions options_;

  mutable std::mutex mu_;
  std::unique_ptr<RecordLog> log_;  // guarded by mu_
  Index index_;                     // guarded by mu_
  uint64_t dead_bytes_ = 0;         // guarded by mu_
  uint64_t next_seq_ = 0;           // guarded by mu_ (promotion clock)
  StoreStats stats_;                // guarded by mu_ (gauges filled on read)

  // One compaction at a time; ordered strictly before mu_.
  std::mutex compact_mu_;

  // Background compaction thread state.
  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool bg_kick_ = false;
  bool bg_busy_ = false;
  bool bg_stop_ = false;
  std::thread compactor_;

  // Metric bridges (see AttachMetrics); null when detached.
  MetricsRegistry* attached_registry_ = nullptr;
  Counter* hits_counter_ = nullptr;
  Counter* negative_hits_counter_ = nullptr;
  Counter* misses_counter_ = nullptr;
  Counter* puts_counter_ = nullptr;
  Counter* negative_puts_counter_ = nullptr;
  Counter* replay_counter_ = nullptr;
  Counter* compactions_counter_ = nullptr;
  Counter* compaction_bytes_counter_ = nullptr;
  Counter* evicted_counter_ = nullptr;
  Counter* evicted_bytes_counter_ = nullptr;
};

}  // namespace qmap

#endif  // QMAP_STORE_TRANSLATION_STORE_H_
