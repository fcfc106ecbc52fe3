#ifndef QC_DB_INDEX_CACHE_H_
#define QC_DB_INDEX_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "db/trie_index.h"
#include "util/counters.h"
#include "util/stats_fields.h"

namespace qc::db {

using util::IndexCacheStats;

/// Shared, thread-safe cache of trie indexes keyed by
/// (relation name, relation version, projection signature).
///
/// Every Database mutation stamps the relation with a process-unique,
/// monotone version (Database::RelationVersion), so a key can never alias
/// stale data: a mutated relation simply misses under its new version.
/// Supersede rule: at most one version per (relation, signature) is
/// resident. Inserting a newer version evicts the older entry (counted
/// under `evictions`), and an entry built for a version older than the
/// resident one is returned to its caller but not inserted — a cache that
/// serves snapshots of one evolving database holds one projection per live
/// key, whatever its byte cap. The signature
/// (db::AtomProjectionSignature) canonicalizes which columns the index
/// covers, in which order, and under which repeated-attribute equality
/// filter — equal keys are guaranteed byte-identical indexes, which is what
/// lets self-join atoms and repeated queries share one build.
///
/// Memory accounting is byte-accurate against the configured cap: each
/// entry is charged TrieIndex::MemoryBytes() (capacity-accurate heap
/// footprint) plus the entry and key bookkeeping, and insertion evicts
/// least-recently-used entries until the new total fits. An entry larger
/// than the whole cap is never inserted — the caller keeps a private copy
/// and the workload degrades to cold builds (counted under `rejected`)
/// instead of wrong answers or a blown cap. Entries are handed out as
/// shared_ptr, so eviction never invalidates an evaluation that is still
/// reading the index.
///
/// Threading contract: all members are thread-safe behind one mutex.
/// Builders run *outside* the lock, so concurrent misses on one key may
/// build twice; the first insertion wins and later builders adopt it —
/// duplicated work, never duplicated memory or inconsistent state.
///
/// Observability: every lookup records an `index_cache.hit` or
/// `index_cache.miss` trace span (count markers in the span tree), and
/// ExportCounters publishes the "index_cache.*" counter/gauge split into the
/// unified Counters surface.
class IndexCache {
 public:
  /// One immutable cached index over a sorted, deduplicated projection.
  struct Entry {
    TrieIndex trie;
    bool no_rows = false;   ///< True when the projection had zero rows.
    std::size_t bytes = 0;  ///< Accounted footprint; filled on insert.
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  explicit IndexCache(std::size_t capacity_bytes) {
    stats_.enabled = true;
    stats_.capacity_bytes = capacity_bytes;
  }

  IndexCache(const IndexCache&) = delete;
  IndexCache& operator=(const IndexCache&) = delete;

  /// Returns the cached entry for (relation, version, signature), invoking
  /// `build` on a miss. Never returns null: on a miss the freshly built
  /// entry is returned even when it cannot be inserted under the cap.
  EntryPtr GetOrBuild(const std::string& relation, std::uint64_t version,
                      const std::string& signature,
                      const std::function<Entry()>& build);

  IndexCacheStats stats() const;
  std::size_t capacity_bytes() const { return stats_.capacity_bytes; }

  /// Drops every entry (counters are kept; in-flight EntryPtrs stay valid).
  void Clear();

  /// Publishes `stats` under "index_cache.": the hit, miss, eviction and
  /// rejection counts as counters, the occupancy fields as gauges.
  static void ExportCounters(const IndexCacheStats& stats,
                             util::Counters* sink);
  void ExportCounters(util::Counters* sink) const {
    ExportCounters(stats(), sink);
  }

 private:
  struct Slot {
    EntryPtr entry;
    std::uint64_t version = 0;                ///< Relation version built at.
    std::list<std::string>::iterator lru_it;  ///< Position in lru_.
  };

  /// Drops one resident entry, counted as an eviction. Caller holds mu_.
  void EraseLocked(std::unordered_map<std::string, Slot>::iterator victim);

  /// Evicts LRU entries until `incoming` more bytes fit under the cap.
  /// Caller holds mu_.
  void EvictToFitLocked(std::size_t incoming);

  mutable std::mutex mu_;
  /// Counters and footprint, guarded by mu_ (`entries` is read off map_);
  /// capacity_bytes is fixed at construction.
  IndexCacheStats stats_;
  /// Most-recently-used at the front; values are the map keys.
  std::list<std::string> lru_;
  /// Keyed by (relation, signature); the slot records the version.
  std::unordered_map<std::string, Slot> map_;
};

}  // namespace qc::db

#endif  // QC_DB_INDEX_CACHE_H_
