#ifndef QC_UTIL_RUN_REPORT_H_
#define QC_UTIL_RUN_REPORT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "util/budget.h"
#include "util/counters.h"
#include "util/stats_fields.h"
#include "util/trace.h"

namespace qc::util {

/// Machine-readable record of one run: how it ended, what it spent, and
/// where the time went. One JSON serializer — Emit(JsonWriter&) — shared by
/// query_cli and fpt_toolbox (`--report-json <file>`), the experiment
/// harnesses, and qc_serverd's per-request reports, so every tool in the
/// repo emits the same schema (checked in CI by
/// tools/check_report_schema.py). The "cache", "planner" and "ivm" sections
/// are the records themselves (util/stats_fields.h), written from their
/// field lists.
///
/// JSON shape:
///   {
///     "tool": "query_cli",
///     "status": "completed",          // util::ToString(RunStatus)
///     "exit_code": 0,                 // util::ExitCode(status)
///     "threads": 1,
///     "wall_ms": 12.5,
///     "budget": { "deadline_armed": false, "work_used": 0, "work_limit": 0,
///                 "rows_used": 4, "row_limit": 0 },
///     "cache":  { "enabled": false, "hits": 0, "misses": 0, "evictions": 0,
///                 "bytes": 0, "capacity_bytes": 0, "entries": 0,
///                 "rejected": 0 },
///     "stats":  { "simd_level": "avx512",   // dispatched kernel level
///                 "arena_high_water_bytes": 0 },
///     "counters": { "generic_join.nodes": 10, ... },  // monotonic keys
///     "gauges":   { "threads": 8, ... },              // level keys
///     "spans": [ { "name": "generic_join", "count": 1, "total_ms": 12.1,
///                  "children": [ ... ] } ],           // sorted by name
///     "server": { "request_id": 7, "queue_ms": 0.3,   // only when the run
///                 "snapshot_epoch": 12 },             // was served by
///                                                     // qc_serverd
///     "planner": { "pattern": "triangle", ... },      // only when the
///                                                     // hybrid planner
///                                                     // examined the query
///     "ivm": { "views": 1, "updates": 9, ... }  // only when the serving
///   }                                           // process maintains views
struct RunReport {
  std::string tool;
  RunStatus status = RunStatus::kCompleted;
  int threads = 1;
  double wall_ms = 0.0;

  struct BudgetUsage {
    bool deadline_armed = false;
    std::uint64_t work_used = 0;
    std::uint64_t work_limit = 0;  ///< 0 = unlimited.
    std::uint64_t rows_used = 0;
    std::uint64_t row_limit = 0;   ///< 0 = unlimited.
  };
  BudgetUsage budget;

  /// Trie-index cache usage. Always serialized; `enabled = false` with
  /// zeros means no cache was configured for the run.
  IndexCacheStats cache;

  /// Execution-substrate stats, serialized as the "stats" object. The SIMD
  /// level is read at Emit() time straight from kernels::ActiveSimdLevel()
  /// (qc_util links qc_kernels), so every report truthfully records the
  /// dispatched kernel path with zero per-tool wiring; the arena high-water
  /// mark is filled by owners that route scratch through a util::Arena
  /// (0 = no arena in use).
  struct SubstrateStats {
    std::uint64_t arena_high_water_bytes = 0;
  };
  SubstrateStats stats;

  /// Merged counters + gauges (Counters keeps the kind split).
  Counters counters;

  /// Merged span tree, typically Trace::Collect() after a traced run.
  TraceReport trace;

  /// Per-request context when the run was served by qc_serverd. Serialized
  /// (as a "server" object) only when `present` — standalone CLI/bench
  /// reports keep the historical schema byte-for-byte.
  struct ServerInfo {
    bool present = false;
    std::uint64_t request_id = 0;
    double queue_ms = 0.0;  ///< Time spent waiting in the admission queue.
    std::uint64_t snapshot_epoch = 0;  ///< MVCC write epoch the query saw.
  };
  ServerInfo server;

  /// Incremental-view-maintenance counters, serialized (as an "ivm"
  /// object) only when the serving process keeps materialized views.
  std::optional<IvmStats> ivm;

  /// Degree-split hybrid planner decision record, serialized (as a
  /// "planner" object) only when the planner examined the query
  /// (pattern != kNone), including auto-mode declines where the trie
  /// engine ran.
  HybridPlan planner;

  /// Copies usage and limits out of a run's budget. `deadline_armed` is
  /// inferred from the status or set by the caller via `deadline_armed`.
  void FillBudget(const Budget& b, bool deadline_armed);

  /// THE serialization entry point: writes the report object into `w`.
  /// Every emission path — ToJson/WriteJsonFile, the bench `--json`
  /// harnesses, qc_serverd's report frames — funnels through this one
  /// method, so the schema cannot fork per tool.
  void Emit(JsonWriter& w) const;

  std::string ToJson() const;

  /// Writes ToJson() plus a trailing newline; false (with a stderr message)
  /// when the file cannot be written.
  bool WriteJsonFile(const std::string& path) const;
};

}  // namespace qc::util

#endif  // QC_UTIL_RUN_REPORT_H_
