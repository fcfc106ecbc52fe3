#!/usr/bin/env python3
"""Build and run the qcbench benchmark from the root of a checkout.

    python3 qcbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 qcbench/run.py --all [--seed N] [--seconds S]

One invocation builds qcbench (CMake, Release, into .bench_build/qcbench),
runs one workload and prints the binary's report followed, as the last line,
by a JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.

An untraced run is SUB_RUNS processes that split the run's seconds; each
metric is the median over them, so a burst of load from outside the
benchmark moves one sub-run, not the result. A traced
run is one process. The full result (every metric with its sample count,
the fingerprint, any failed check) is saved under .bench_build/results/ for
qcbench/agree.py. Exit code 0 only when every correctness gate passed.

--all runs every workload untraced and prints each workload's end-to-end
metrics by name, with unit and sample count.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SUB_RUNS = 3
# Whole-invocation budget for the binary (the result is due within 180 s).
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "qcbench"))


def build():
    """Configures and builds the qcbench binary; returns its path."""
    out = build_dir()
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "qcbench", "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("qcbench: %s failed" % " ".join(cmd[:2]))
    return os.path.join(out, "qcbench")


def results_dir():
    path = os.path.join(os.path.dirname(build_dir()), "results")
    os.makedirs(path, exist_ok=True)
    return path


def stem(workload, seed, trace):
    return "%s-seed%d-trace%d-%d" % (workload, seed, trace,
                                     int(time.time() * 1000))


def save(full, name):
    with open(os.path.join(results_dir(), name + ".json"), "w") as f:
        json.dump(full, f, indent=1)


def run_once(binary, workload, seed, seconds, timeout, spans=None):
    """Runs the binary once; returns (report lines, full result dict)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "%g" % seconds, "--trace", "1" if spans else "0",
           "--work-dir", os.path.join(os.path.dirname(build_dir()), "work")]
    if spans:
        cmd += ["--spans-out", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit("qcbench: no result within %d s" % timeout)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        full = json.loads(lines[-1])
    except (ValueError, IndexError):
        raise SystemExit("qcbench: binary exited %d without a result"
                         % proc.returncode)
    return lines[:-1], full


def combine(subs):
    """One result from several sub-runs: each metric's median, summed
    counts, and the conjunction of the correctness verdicts."""
    full = dict(subs[0])
    full["correct"] = all(s["correct"] for s in subs)
    full["attempted"] = sum(s["attempted"] for s in subs)
    full["failed"] = sum(s["failed"] for s in subs)
    full["failures"] = [f for s in subs for f in s["failures"]]
    full["fingerprint"] = dict(subs[0]["fingerprint"],
                               sub_runs=str(len(subs)))
    metrics = {}
    for name, m in subs[0]["metrics"].items():
        got = [s["metrics"][name] for s in subs if name in s["metrics"]]
        metrics[name] = {"value": statistics.median(g["value"] for g in got),
                         "unit": m["unit"],
                         "samples": sum(g["samples"] for g in got)}
    full["metrics"] = metrics
    return full


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload and saves its full result."""
    name = stem(workload, seed, trace)
    if trace:
        spans = os.path.join(results_dir(), name + ".spans.jsonl")
        lines, full = run_once(binary, workload, seed, seconds, RUN_TIMEOUT_S,
                               spans)
        save(full, name)
        return lines, full
    lines, subs = [], []
    for i in range(SUB_RUNS):
        sub_lines, sub = run_once(binary, workload, seed, seconds / SUB_RUNS,
                                  RUN_TIMEOUT_S // SUB_RUNS)
        lines += ["## sub-run %d of %d" % (i + 1, SUB_RUNS)] + sub_lines
        subs.append(sub)
    full = combine(subs)
    save(full, name)
    lines.append("## median over %d sub-runs" % SUB_RUNS)
    for metric, m in full["metrics"].items():
        lines.append("%-36s %16.6f %-8s (n=%d)"
                     % (metric, m["value"], m["unit"], m["samples"]))
    lines += ["CHECK FAILED: %s" % f for f in full["failures"]]
    return lines, full


def contract_line(spec, full, trace):
    """The result line: only the metrics BENCHMARK.json lists."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, correct = {}, bool(full["correct"])
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            print("qcbench: metric %s missing or in another unit"
                  % m["name"], file=sys.stderr)
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": correct, "attempted": max(1, int(full["attempted"])),
            "failed": int(full["failed"]), "metrics": metrics}


def run_all(binary, spec, seed, seconds):
    ok = True
    for w in spec["workloads"]:
        _, full = run_workload(binary, w["name"], seed, seconds, 0)
        ok &= bool(full["correct"])
        print("== %s (seed %d, %g s): correct=%s attempted=%d failed=%d"
              % (w["name"], seed, seconds, full["correct"], full["attempted"],
                 full["failed"]))
        for f in full["failures"]:
            print("   CHECK FAILED: %s" % f)
        for name, m in full["metrics"].items():
            print("   %-22s %16.4f %-7s n=%d"
                  % (name, m["value"], m["unit"], m["samples"]))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("--workload or --all is required")

    binary = build()
    spec = load_spec()
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    if args.all:
        return run_all(binary, spec, args.seed, seconds)
    lines, full = run_workload(binary, args.workload, args.seed, seconds,
                               args.trace)
    for line in lines:
        print(line)
    result = contract_line(spec, full, args.trace)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


if __name__ == "__main__":
    sys.exit(main())
