#!/usr/bin/env python3
"""Validates RunReports and qc_serverd stats frames against their schemas.

Usage: check_report_schema.py file.json [file2.json ...]

Each file holds one JSON object of either shape, told apart by its keys:

- a RunReport (has "tool"): the schema documented in
  src/util/run_report.h, emitted by query_cli, fpt_toolbox, the
  E-harnesses and qc_serverd's per-request report frames (which add the
  optional "server" section);
- a stats frame (has "admission", no "tool"): the body of qc_serverd's
  `stats` reply, which it also prints as the last stderr line on shutdown
  (QueryServer::StatsJson). Its "faults" map is required when QC_FAULTS is
  set in the checker's environment and forbidden otherwise, so run the
  checker with the server's QC_FAULTS.

Exits nonzero (with a message naming the offending key) on the first
violation. Stdlib only.
"""

import json
import os
import sys

KNOWN_STATUSES = {
    "completed",
    "deadline-exceeded",
    "budget-exhausted",
    "cancelled",
    "internal-error",
}

KNOWN_SIMD_LEVELS = {"scalar", "avx2", "avx512"}

KNOWN_PLANNER_PATTERNS = {"triangle", "4-cycle", "4-clique", "5-clique"}


def fail(path, message):
    print(f"{path}: {message}", file=sys.stderr)
    sys.exit(1)


def check_type(path, obj, key, expected):
    if key not in obj:
        fail(path, f"missing required key {key!r}")
    if not isinstance(obj[key], expected):
        fail(path, f"key {key!r} has type {type(obj[key]).__name__}, "
                   f"expected {expected}")


def check_uint(path, obj, key, where):
    check_type(path, obj, key, int)
    if isinstance(obj[key], bool) or obj[key] < 0:
        fail(path, f"{where}.{key} is not a non-negative int")


def check_object(path, obj, key, where):
    """Returns obj[key], which must be an object."""
    check_type(path, obj, key, dict)
    return obj[key]


def check_exact_keys(path, obj, keys, where):
    """The object holds exactly `keys`, in this order."""
    if list(obj) != list(keys):
        fail(path, f"{where} keys {list(obj)} differ from {list(keys)}")


def check_span(path, span, where):
    if not isinstance(span, dict):
        fail(path, f"{where}: span is not an object")
    for key, expected in (("name", str), ("count", int),
                          ("total_ms", (int, float)), ("children", list)):
        if key not in span:
            fail(path, f"{where}: span missing {key!r}")
        if not isinstance(span[key], expected):
            fail(path, f"{where}.{key}: wrong type")
    if span["count"] < 0:
        fail(path, f"{where}: negative count")
    for i, child in enumerate(span["children"]):
        check_span(path, child, f"{where}.children[{i}]")


def check_cache(path, cache):
    """The "cache" object of both shapes (util::IndexCacheStats)."""
    check_type(path, cache, "enabled", bool)
    for key in ("hits", "misses", "evictions", "bytes", "capacity_bytes",
                "entries", "rejected"):
        check_type(path, cache, key, int)
        if cache[key] < 0:
            fail(path, f"cache.{key} is negative")
    if not cache["enabled"] and any(
            cache[k] for k in ("hits", "misses", "bytes", "entries")):
        fail(path, "cache disabled but reports nonzero usage")


STATS_COUNTERS = ("connections", "requests", "queries", "mutations",
                  "mutations_deduped", "view_registers", "view_reads",
                  "input_errors", "protocol_errors", "queue_sheds",
                  "drain_rejects")
STATS_SECTIONS = {
    "admission": ("admitted", "rejected", "timed_out", "max_queued",
                  "running", "queued"),
    "mvcc": ("mutations", "snapshots", "snapshot_builds", "wal_rejections"),
    "ivm": ("views", "updates", "dirty_subtree_sweeps", "rows_delta_applied",
            "full_recomputes"),
}
WAL_COUNTERS = ("records_appended", "bytes_appended", "syncs", "compactions",
                "log_bytes", "append_failures")
RECOVERED_COUNTERS = ("snapshot_records", "log_records",
                      "torn_bytes_truncated", "duplicate_records_skipped",
                      "stale_log_bytes_skipped", "request_ids", "view_defs",
                      "views_rebuilt", "views_failed")


def check_stats_frame(path, stats):
    """The `stats` frame body (server::QueryServer::StatsJson)."""
    for key in STATS_COUNTERS:
        check_uint(path, stats, key, "stats")
    check_type(path, stats, "draining", bool)

    for section, keys in STATS_SECTIONS.items():
        obj = check_object(path, stats, section, "stats")
        for key in keys:
            check_uint(path, obj, key, section)
        check_exact_keys(path, obj, keys, section)

    wal = check_object(path, stats, "wal", "stats")
    check_type(path, wal, "enabled", bool)
    for key in WAL_COUNTERS:
        check_uint(path, wal, key, "wal")
    recovered = check_object(path, wal, "recovered", "wal")
    check_type(path, recovered, "ran", bool)
    for key in RECOVERED_COUNTERS:
        check_uint(path, recovered, key, "wal.recovered")
    check_exact_keys(path, recovered, ("ran",) + RECOVERED_COUNTERS,
                     "wal.recovered")
    if not recovered["ran"] and any(recovered[k] for k in RECOVERED_COUNTERS):
        fail(path, "wal.recovered did not run but reports replayed records")
    check_exact_keys(path, wal, ("enabled",) + WAL_COUNTERS + ("recovered",),
                     "wal")

    check_cache(path, check_object(path, stats, "cache", "stats"))

    faults_enabled = bool(os.environ.get("QC_FAULTS"))
    if faults_enabled:
        faults = check_object(path, stats, "faults", "stats")
        for point, counts in faults.items():
            if not isinstance(counts, dict):
                fail(path, f"faults[{point!r}] is not an object")
            for key in ("evals", "fires"):
                check_uint(path, counts, key, f"faults[{point!r}]")
            check_exact_keys(path, counts, ("evals", "fires"),
                             f"faults[{point!r}]")
            if counts["fires"] > counts["evals"]:
                fail(path, f"faults[{point!r}] fires more than it evaluates")
    elif "faults" in stats:
        fail(path, "faults map present but QC_FAULTS is not set")

    expected = (STATS_COUNTERS + ("draining",) + tuple(STATS_SECTIONS) +
                ("wal", "cache") + (("faults",) if faults_enabled else ()))
    check_exact_keys(path, stats, expected, "stats")

    print(f"{path}: ok (stats frame, {stats['requests']} requests, "
          f"wal={'on' if wal['enabled'] else 'off'}, "
          f"cache={'on' if stats['cache']['enabled'] else 'off'})")


def check_report(path, report):
    check_type(path, report, "tool", str)
    check_type(path, report, "status", str)
    check_type(path, report, "exit_code", int)
    check_type(path, report, "threads", int)
    check_type(path, report, "wall_ms", (int, float))
    check_type(path, report, "budget", dict)
    check_type(path, report, "cache", dict)
    check_type(path, report, "stats", dict)
    check_type(path, report, "counters", dict)
    check_type(path, report, "gauges", dict)
    check_type(path, report, "spans", list)

    if report["status"] not in KNOWN_STATUSES:
        fail(path, f"unknown status {report['status']!r}")
    if report["threads"] < 1:
        fail(path, "threads < 1")
    if report["wall_ms"] < 0:
        fail(path, "negative wall_ms")

    budget = report["budget"]
    check_type(path, budget, "deadline_armed", bool)
    for key in ("work_used", "work_limit", "rows_used", "row_limit"):
        check_type(path, budget, key, int)
        if budget[key] < 0:
            fail(path, f"budget.{key} is negative")

    check_cache(path, report["cache"])

    # Execution-substrate stats: the kernel SIMD level the run dispatched to
    # and the per-query arena scratch footprint (0 = no arena in use).
    stats = report["stats"]
    check_type(path, stats, "simd_level", str)
    if stats["simd_level"] not in KNOWN_SIMD_LEVELS:
        fail(path, f"unknown stats.simd_level {stats['simd_level']!r}")
    check_type(path, stats, "arena_high_water_bytes", int)
    if stats["arena_high_water_bytes"] < 0:
        fail(path, "stats.arena_high_water_bytes is negative")

    for section in ("counters", "gauges"):
        for key, value in report[section].items():
            if not isinstance(value, int) or value < 0:
                fail(path, f"{section}[{key!r}] is not a non-negative int")

    for i, span in enumerate(report["spans"]):
        check_span(path, span, f"spans[{i}]")

    # Optional "server" section: present only on qc_serverd per-request
    # reports (request id, admission queue wait, pinned MVCC epoch).
    if "server" in report:
        server = report["server"]
        if not isinstance(server, dict):
            fail(path, "server is not an object")
        for key in ("request_id", "snapshot_epoch"):
            check_type(path, server, key, int)
            if server[key] < 0:
                fail(path, f"server.{key} is negative")
        check_type(path, server, "queue_ms", (int, float))
        if server["queue_ms"] < 0:
            fail(path, "server.queue_ms is negative")
        unknown = set(server) - {"request_id", "queue_ms", "snapshot_epoch"}
        if unknown:
            fail(path, f"server has unknown keys {sorted(unknown)}")

    # Optional "ivm" section: present only when the serving process has
    # registered materialized views (counters from db::IvmStats).
    if "ivm" in report:
        ivm = report["ivm"]
        if not isinstance(ivm, dict):
            fail(path, "ivm is not an object")
        ivm_keys = ("views", "updates", "dirty_subtree_sweeps",
                    "rows_delta_applied", "full_recomputes")
        for key in ivm_keys:
            check_type(path, ivm, key, int)
            if ivm[key] < 0:
                fail(path, f"ivm.{key} is negative")
        unknown = set(ivm) - set(ivm_keys)
        if unknown:
            fail(path, f"ivm has unknown keys {sorted(unknown)}")

    # Optional "planner" section: present only when the degree-split hybrid
    # planner examined the query (db::HybridPlan with pattern != none).
    if "planner" in report:
        planner = report["planner"]
        if not isinstance(planner, dict):
            fail(path, "planner is not an object")
        check_type(path, planner, "pattern", str)
        if planner["pattern"] not in KNOWN_PLANNER_PATTERNS:
            fail(path, f"unknown planner.pattern {planner['pattern']!r}")
        for key in ("threshold_overridden", "delegated"):
            check_type(path, planner, key, bool)
        int_keys = ("threshold", "heavy_values", "heavy_tuples",
                    "light_tuples", "heavy_rows", "light_rows")
        for key in int_keys:
            check_type(path, planner, key, int)
            if planner[key] < 0:
                fail(path, f"planner.{key} is negative")
        if planner["threshold"] < 1:
            fail(path, "planner.threshold < 1")
        if planner["delegated"] and planner["heavy_values"] != 0:
            fail(path, "planner delegated but reports heavy values")
        unknown = set(planner) - set(int_keys) - {
            "pattern", "threshold_overridden", "delegated"}
        if unknown:
            fail(path, f"planner has unknown keys {sorted(unknown)}")

    served = " (served)" if "server" in report else ""
    print(f"{path}: ok ({report['tool']}, status={report['status']}, "
          f"simd={stats['simd_level']}, "
          f"{len(report['spans'])} top-level spans){served}")


def check_file(path):
    with open(path, encoding="utf-8") as f:
        obj = json.load(f)
    if not isinstance(obj, dict):
        fail(path, "top level is not an object")
    if "admission" in obj and "tool" not in obj:
        check_stats_frame(path, obj)
    else:
        check_report(path, obj)


def main():
    if len(sys.argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for path in sys.argv[1:]:
        check_file(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
