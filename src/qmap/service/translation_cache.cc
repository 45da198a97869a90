#include "qmap/service/translation_cache.h"

#include <algorithm>

#include "qmap/obs/metrics.h"

namespace qmap {

TranslationCache::TranslationCache(TranslationCacheOptions options) {
  size_t shards = std::max<size_t>(1, options.shards);
  size_t capacity = std::max<size_t>(1, options.capacity);
  per_shard_capacity_ = (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

TranslationCache::Shard& TranslationCache::ShardFor(
    const TranslationCacheKey& key) {
  return *shards_[TranslationCacheKeyHash{}(key) % shards_.size()];
}

void TranslationCache::AttachMetrics(MetricsRegistry* registry) {
  attached_registry_ = registry;
  if (registry == nullptr) {
    hits_counter_ = misses_counter_ = insertions_counter_ = updates_counter_ =
        evictions_counter_ = nullptr;
    return;
  }
  hits_counter_ = &registry->counter("qmap_cache_hits_total");
  misses_counter_ = &registry->counter("qmap_cache_misses_total");
  insertions_counter_ = &registry->counter("qmap_cache_insertions_total");
  updates_counter_ = &registry->counter("qmap_cache_updates_total");
  evictions_counter_ = &registry->counter("qmap_cache_evictions_total");
}

void TranslationCache::DetachMetricsIf(MetricsRegistry* registry) {
  if (registry != nullptr && attached_registry_ == registry) {
    AttachMetrics(nullptr);
  }
}

std::optional<Translation> TranslationCache::Get(const TranslationCacheKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.stats.misses;
    if (misses_counter_ != nullptr) misses_counter_->Inc();
    return std::nullopt;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.stats.hits;
  if (hits_counter_ != nullptr) hits_counter_->Inc();
  return it->second->value;
}

bool TranslationCache::Put(const TranslationCacheKey& key, Translation value) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->value = std::move(value);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.stats.updates;
    if (updates_counter_ != nullptr) updates_counter_->Inc();
    return false;
  }
  shard.lru.push_front(Entry{key, std::move(value)});
  shard.index.emplace(key, shard.lru.begin());
  ++shard.stats.insertions;
  if (insertions_counter_ != nullptr) insertions_counter_->Inc();
  if (shard.lru.size() <= per_shard_capacity_) return false;
  shard.index.erase(shard.lru.back().key);
  shard.lru.pop_back();
  ++shard.stats.evictions;
  if (evictions_counter_ != nullptr) evictions_counter_->Inc();
  return true;
}

TranslationCacheStats TranslationCache::stats() const {
  TranslationCacheStats out;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.hits += shard->stats.hits;
    out.misses += shard->stats.misses;
    out.insertions += shard->stats.insertions;
    out.updates += shard->stats.updates;
    out.evictions += shard->stats.evictions;
  }
  return out;
}

size_t TranslationCache::size() const {
  size_t out = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out += shard->lru.size();
  }
  return out;
}

void TranslationCache::Clear() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

}  // namespace qmap
