#!/usr/bin/env python3
"""Compare two sets of qcbench result files.

    python3 qcbench/agree.py SET_A SET_B

Each set is a directory of result files (as qcbench/run.py saves them under
.bench_build/results/) or a single result file. For every workload and
metric the tool prints each set's median and quartiles, their relative
difference, and a verdict against the bound BENCHMARK.json gives the metric:
"agree" when the medians differ by at most the bound, otherwise "better" or
"worse" in the metric's own direction. Metrics without a bound are listed
with "-". Workloads whose fingerprints differ between the sets (host cores,
SIMD level, build type, engine threads, connections, fsync policy, cache
size, run length) are flagged and not compared. Exit code 0 when every
bounded metric agrees and no fingerprint differs.
"""

import json
import os
import statistics
import sys

# Fingerprint keys that legitimately vary between the runs of one set.
PER_RUN_KEYS = {"seed"}


def load_set(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = []
    for f in files:
        if not f.endswith(".json"):
            continue
        with open(f) as fh:
            run = json.load(fh)
        if "workload" in run and "metrics" in run:
            runs.append(run)
    return runs


def group(runs):
    out = {}
    for r in runs:
        out.setdefault((r["workload"], r["trace"]), []).append(r)
    return out


def fingerprint(runs):
    """The set's common fingerprint, or None when its own runs differ."""
    prints = {json.dumps({k: v for k, v in r["fingerprint"].items()
                          if k not in PER_RUN_KEYS}, sort_keys=True)
              for r in runs}
    return json.loads(prints.pop()) if len(prints) == 1 else None


def stats(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"] for m in spec["per_layer"]}
    directions.update({n: m["better"] for n, m in bounds.items()})

    a, b = (group(load_set(p)) for p in sys.argv[1:])
    ok = True
    for key in sorted(set(a) | set(b)):
        workload, trace = key
        title = "%s (trace %d)" % (workload, trace)
        if key not in a or key not in b:
            print("== %s: only in set %s" % (title, "A" if key in a else "B"))
            ok = False
            continue
        fa, fb = fingerprint(a[key]), fingerprint(b[key])
        if fa is None or fb is None or fa != fb:
            print("== %s: FINGERPRINT MISMATCH, not compared" % title)
            for k in sorted(set(fa or {}) | set(fb or {})):
                va, vb = (fa or {}).get(k), (fb or {}).get(k)
                if va != vb:
                    print("   %s: A=%s B=%s" % (k, va, vb))
            ok = False
            continue
        print("== %s: %d runs in A, %d in B; fingerprint %s" % (
            title, len(a[key]), len(b[key]),
            ", ".join("%s=%s" % kv for kv in sorted(fa.items()))))
        print("   %-34s %-7s %12s %12s %12s   %12s %12s %12s %8s %6s  %s" % (
            "metric", "unit", "A q1", "A median", "A q3", "B q1", "B median",
            "B q3", "B vs A", "bound", "verdict"))
        names = []
        for r in a[key] + b[key]:
            names += [n for n in r["metrics"] if n not in names]
        for name in names:
            va = [r["metrics"][name]["value"] for r in a[key]
                  if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b[key]
                  if name in r["metrics"]]
            if not va or not vb:
                continue
            unit = (a[key][0]["metrics"].get(name) or
                    b[key][0]["metrics"][name])["unit"]
            qa, qb = stats(va), stats(vb)
            diff = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            bound = bounds.get(name, {}).get("bound")
            verdict = "-"
            if bound is not None:
                worse = diff if directions[name] == "lower" else -diff
                verdict = ("agree" if abs(diff) <= bound else
                           "worse" if worse > 0 else "better")
                ok &= verdict == "agree"
            print("   %-34s %-7s %12.4g %12.4g %12.4g   %12.4g %12.4g %12.4g "
                  "%+7.1f%% %6s  %s" % (
                      name, unit, qa[0], qa[1], qa[2], qb[0], qb[1], qb[2],
                      100 * diff, "-" if bound is None else "%g" % bound,
                      verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
