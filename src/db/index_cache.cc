#include "db/index_cache.h"

#include <utility>

#include "util/fault.h"
#include "util/trace.h"

namespace qc::db {

namespace {

std::string MakeKey(const std::string& relation,
                    const std::string& signature) {
  // '\x1f' (unit separator) cannot appear in relation names or signatures,
  // so the concatenation is injective.
  std::string key;
  key.reserve(relation.size() + signature.size() + 1);
  key += relation;
  key += '\x1f';
  key += signature;
  return key;
}

}  // namespace

IndexCache::EntryPtr IndexCache::GetOrBuild(
    const std::string& relation, std::uint64_t version,
    const std::string& signature, const std::function<Entry()>& build) {
  static const std::uint32_t kHitSpan = util::Trace::InternName("index_cache.hit");
  static const std::uint32_t kMissSpan =
      util::Trace::InternName("index_cache.miss");
  const std::string key = MakeKey(relation, signature);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end() && it->second.version == version) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      util::ScopedSpan span(kHitSpan);
      return it->second.entry;
    }
    ++stats_.misses;
  }
  // Build outside the lock: a large build must not serialize unrelated
  // lookups. Concurrent misses on one key may both reach here; the second
  // insert below detects the race and adopts the first winner's entry.
  EntryPtr built;
  {
    util::ScopedSpan span(kMissSpan);
    auto fresh = std::make_shared<Entry>(build());
    if (fresh->bytes == 0) {
      fresh->bytes = fresh->trie.MemoryBytes() + sizeof(Entry) +
                     sizeof(Slot) + 2 * key.size();
    }
    built = std::move(fresh);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    if (it->second.version == version) {
      // Lost the build race: keep the resident entry so both callers share
      // one footprint.
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.entry;
    }
    // Supersede rule: one resident version per (relation, signature). A
    // build for an older snapshot serves its caller only; a newer one
    // evicts the stale entry, which no later snapshot can ask for.
    if (it->second.version > version) return built;
    EraseLocked(it);
  }
  if (built->bytes > stats_.capacity_bytes) {
    ++stats_.rejected;
    return built;  // Usable, but too large to ever share.
  }
  // "index_cache.insert" degrades exactly like the oversized path above:
  // the caller keeps a private, fully usable index and only the sharing is
  // lost — the graceful-degradation contract for cache faults.
  if (util::FaultsEnabled() && util::FaultPoint("index_cache.insert")) {
    ++stats_.rejected;
    return built;
  }
  EvictToFitLocked(built->bytes);
  lru_.push_front(key);
  stats_.bytes += built->bytes;
  map_.emplace(key, Slot{built, version, lru_.begin()});
  return built;
}

void IndexCache::EraseLocked(
    std::unordered_map<std::string, Slot>::iterator victim) {
  stats_.bytes -= victim->second.entry->bytes;
  lru_.erase(victim->second.lru_it);
  map_.erase(victim);
  ++stats_.evictions;
}

void IndexCache::EvictToFitLocked(std::size_t incoming) {
  while (!lru_.empty() && stats_.bytes + incoming > stats_.capacity_bytes) {
    EraseLocked(map_.find(lru_.back()));
  }
}

IndexCacheStats IndexCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  IndexCacheStats s = stats_;
  s.entries = map_.size();
  return s;
}

void IndexCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  stats_.bytes = 0;
}

void IndexCache::ExportCounters(const IndexCacheStats& stats,
                                util::Counters* sink) {
  util::ExportFields(sink, "index_cache.", stats);
}

}  // namespace qc::db
