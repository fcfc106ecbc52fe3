#ifndef QC_UTIL_STATS_FIELDS_H_
#define QC_UTIL_STATS_FIELDS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/counters.h"
#include "util/json.h"

namespace qc::util {

/// A monotonic work count (exported with Counters::Add) or a level reading:
/// a size, limit, high-water mark, flag or name (Counters::Set).
enum class FieldKind { kCounter, kGauge };

// Each served stats record names every field once, in emission order:
//   template <class F> void ForEachField(F&& f) const {
//     f("hits", hits, FieldKind::kCounter); ...
//   }
// The writers below turn that one list into the JSON sections of the
// `stats` frame and the RunReport, and into "<prefix><name>" Counters keys
// (integer fields only). JSON keys are written straight from the literals.

/// Writes every field of `record` into the open JSON object.
template <class Record>
void WriteFields(JsonWriter& w, const Record& record) {
  record.ForEachField([&w](std::string_view key, const auto& value, FieldKind) {
    using T = std::decay_t<decltype(value)>;
    w.Key(key);
    if constexpr (std::is_same_v<T, bool>) {
      w.Bool(value);
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      w.Int(value);
    } else if constexpr (std::is_integral_v<T>) {
      w.Uint(value);
    } else {
      w.String(value);
    }
  });
}

/// Writes `"name": { fields of record }`.
template <class Record>
void WriteSection(JsonWriter& w, std::string_view name, const Record& record) {
  w.Key(name).BeginObject();
  WriteFields(w, record);
  w.EndObject();
}

/// Adds every integer field of `record` to `sink` under "<prefix><name>".
template <class Record>
void ExportFields(Counters* sink, std::string_view prefix,
                  const Record& record) {
  std::string key(prefix);
  record.ForEachField([&](std::string_view name, const auto& v, FieldKind k) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
      key.resize(prefix.size());
      key += name;
      if (k == FieldKind::kGauge) {
        sink->Set(key, static_cast<std::uint64_t>(v));
      } else {
        sink->Add(key, static_cast<std::uint64_t>(v));
      }
    }
  });
}

// The records util::RunReport carries live here, below db/, so the report
// holds the record itself; db/ re-exports them under their db names.

/// Point-in-time view of one db::IndexCache's counters and occupancy.
struct IndexCacheStats {
  bool enabled = false;  ///< False (all zeros): no cache was configured.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t bytes = 0;  ///< Current accounted footprint.
  std::size_t capacity_bytes = 0;
  std::size_t entries = 0;  ///< Current resident entry count.
  /// Entries built but never inserted because they alone exceed the cap
  /// (the caller still gets a working index — it just isn't shared).
  std::uint64_t rejected = 0;

  template <class F>
  void ForEachField(F&& f) const {
    f("enabled", enabled, FieldKind::kGauge);
    f("hits", hits, FieldKind::kCounter);
    f("misses", misses, FieldKind::kCounter);
    f("evictions", evictions, FieldKind::kCounter);
    f("bytes", bytes, FieldKind::kGauge);
    f("capacity_bytes", capacity_bytes, FieldKind::kGauge);
    f("entries", entries, FieldKind::kGauge);
    f("rejected", rejected, FieldKind::kCounter);
  }
};

/// Incremental view maintenance counters of one db::ViewRegistry.
struct IvmStats {
  std::uint64_t views = 0;    ///< Currently registered views.
  std::uint64_t updates = 0;  ///< Commits that touched >= 1 view.
  /// Delta sweeps executed: one per (view, dirty atom) pair with a
  /// nonempty delta on a commit.
  std::uint64_t dirty_subtree_sweeps = 0;
  /// New result rows merged into maintained state by delta sweeps.
  std::uint64_t rows_delta_applied = 0;
  /// Full recomputes (registration, kReplace deltas, rebuilds).
  std::uint64_t full_recomputes = 0;

  template <class F>
  void ForEachField(F&& f) const {
    f("views", views, FieldKind::kGauge);
    f("updates", updates, FieldKind::kCounter);
    f("dirty_subtree_sweeps", dirty_subtree_sweeps, FieldKind::kCounter);
    f("rows_delta_applied", rows_delta_applied, FieldKind::kCounter);
    f("full_recomputes", full_recomputes, FieldKind::kCounter);
  }
};

/// Small join patterns the degree-split hybrid planner (db::HybridJoin)
/// recognizes: every atom must be binary over two distinct attributes, no
/// attribute pair may repeat, and the pair graph must be one of the shapes
/// below (the cyclic core of Fan–Koutris's fine-grained taxonomy, where the
/// MM route of Abo Khamis–Hu–Suciu beats the submodular-width bound on
/// skewed inputs). Everything else is kNone and stays with the caller's
/// usual engine.
enum class HybridPattern {
  kNone = 0,
  kTriangle,    ///< 3 attributes, all 3 pairs.
  kFourCycle,   ///< 4 attributes, 4 pairs forming a cycle.
  kFourClique,  ///< 4 attributes, all 6 pairs.
  kFiveClique,  ///< 5 attributes, all 10 pairs.
};

inline std::string_view ToString(HybridPattern pattern) {
  constexpr std::string_view kNames[] = {"none", "triangle", "4-cycle",
                                         "4-clique", "5-clique"};
  const auto i = static_cast<std::size_t>(pattern);
  return i < std::size(kNames) ? kNames[i] : "?";
}

/// What the hybrid planner decided and how much each phase saw. Its field
/// list is the RunReport "planner" section; the "hybrid.*" counters are
/// counted by db::HybridJoin as each phase runs.
struct HybridPlan {
  HybridPattern pattern = HybridPattern::kNone;
  std::int64_t threshold = 0;         ///< Resolved degree threshold Δ.
  bool threshold_overridden = false;  ///< Δ came from the caller, not √N.
  std::uint64_t heavy_values = 0;     ///< Heavy (attribute, value) pairs.
  /// Distinct atom tuples with both ends heavy (set heavy-matrix bits).
  std::uint64_t heavy_tuples = 0;
  /// Atom rows handed to the light residuals, before GenericJoin
  /// deduplicates them (0 until a non-delegated evaluation runs).
  std::uint64_t light_tuples = 0;
  std::uint64_t heavy_rows = 0;       ///< Result rows from the heavy phase.
  std::uint64_t light_rows = 0;       ///< Result rows from the light phase.
  /// True when no value was heavy: the whole run was one pure GenericJoin
  /// over the original instance (the all-light fast path).
  bool delegated = false;

  template <class F>
  void ForEachField(F&& f) const {
    f("pattern", ToString(pattern), FieldKind::kGauge);
    f("threshold", threshold, FieldKind::kGauge);
    f("threshold_overridden", threshold_overridden, FieldKind::kGauge);
    f("delegated", delegated, FieldKind::kGauge);
    f("heavy_values", heavy_values, FieldKind::kCounter);
    f("heavy_tuples", heavy_tuples, FieldKind::kCounter);
    f("light_tuples", light_tuples, FieldKind::kCounter);
    f("heavy_rows", heavy_rows, FieldKind::kCounter);
    f("light_rows", light_rows, FieldKind::kCounter);
  }
};

}  // namespace qc::util

#endif  // QC_UTIL_STATS_FIELDS_H_
