#!/usr/bin/env python3
"""GALE end-to-end benchmark: builds the harness from source, runs one
workload (or all three) in its own process, checks its outputs, and
prints its metrics.

  python3 e2ebench/run.py --workload detect|ingest|serve|all \\
      --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics (harness spans off). --trace 1
runs the workload twice, untraced then traced, for half of --seconds
each, and prints the per-layer
table: each metric with its count and the end-to-end metric it should
move; it also writes a chrome trace and the table as JSON under
.bench_build/trace/. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 1 when
an output check fails and 2 when the harness cannot be built or run.
See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
import traceback

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("detect", "ingest", "serve")
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BINARY = os.path.join(BUILD_DIR, "e2ebench")
# Every run must end well inside the 180 s a single invocation may take.
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(log_path, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2ebench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    log(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(step))


def run_harness(workload, seed, seconds, trace, deadline):
    work_dir = os.path.join(BUILD_ROOT, "work", "%s-%d" % (workload, os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("%s: harness did not finish in time" % workload)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("%s: harness exited with %d" % (workload, proc.returncode))
    return json.loads(proc.stdout)


def fmt(value):
    return "%.6g" % value


def fingerprint(raw):
    h = raw["host"]
    return ("host: nproc=%d parallelism=%d isa=%s compiler=%s build=%s "
            "loadavg_1m=%.2f steal=%.2f%%" % (
                h["nproc"], h["parallelism"], h["isa"], h["compiler"],
                h["build_type"], h["loadavg_1m"], 100 * h["steal_share"]))


def report_checks(raw):
    ok = True
    for check in raw["checks"]:
        print("  check %-32s %s  %s" % (check["name"],
                                        "ok  " if check["ok"] else "FAIL",
                                        check["detail"]))
        ok = ok and check["ok"]
    return ok


def print_end_to_end(raw):
    w = raw["workload"]
    print("[%s] seed=%d  %s" % (w, raw["seed"], fingerprint(raw)))
    metrics = layers.end_to_end(raw)
    print("  %-14s %14s %-5s %s" % ("metric", "value", "unit", "samples / note"))
    for name, (value, unit, count) in metrics.items():
        note = "n=%d  gated" % count
        if name in ("op_ms", "setup_s"):
            note += ", %s time" % layers.CLOCK[w]
        if name == "op_ms":
            note += "; %s" % layers.OPERATION[w]
        print("  %-14s %14s %-5s %s" % (name, fmt(value), unit, note))
    for name, (value, unit, count) in layers.figures(raw).items():
        note = "n=%d  not gated" % count
        if name == "op_wall_ms":
            q, tail = stats.highest_honest_percentile(layers.op_samples_ms(raw))
            if q is not None:
                note += "; p%g=%s ms" % (q, fmt(tail))
        print("  %-14s %14s %-5s %s" % (name, fmt(value), unit, note))
    # Also measured, not gated: outputs of the workload itself.
    v = raw["values"]
    f1 = raw["samples"].get("f1")
    if f1:
        print("  detect.f1    %14s ratio median over %d instances (test fold; "
              "repeat calls must match)" % (fmt(stats.median(f1)), len(f1)))
    topo = raw["samples"].get("fresh_topo_ms")
    if topo:
        print("  ingest.fresh_topo_ms %6s ms    n=%d (topology epochs only)" % (
            fmt(stats.median(topo)), len(topo)))
    print("  run peak RSS %11s MB    whole process, end of run (grows with "
          "uptime; not gated)" % fmt(raw["peak_rss_mb"]))
    if "callers" in v:
        print("  closed loop: %d callers, %g s window after a warm-up" % (
            v["callers"], v["window_s"]))
    if "replay_s" in v:
        print("  ingest.replay_s %11s s     read log + replay + publish" % fmt(v["replay_s"]))
    return metrics


def chrome_trace(merged, selfs, limit=200000):
    events = []
    for i in sorted(range(len(merged)), key=lambda i: merged[i]["start"])[:limit]:
        s = merged[i]
        args = dict(s["args"])
        args["self_us"] = selfs[i] / 1e3
        events.append({"name": s["name"], "ph": "X", "pid": 1, "tid": s["tid"],
                       "ts": s["start"] / 1e3, "dur": (s["end"] - s["start"]) / 1e3,
                       "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"spans": len(merged), "written": len(events)}}


def run_workload(workload, seed, seconds, trace, deadline):
    """Runs one workload; returns (correct, attempted, failed, metrics)
    with metrics as {name: {"value", "unit"}}."""
    if not trace:
        raw = run_harness(workload, seed, seconds, False, deadline)
        metrics = print_end_to_end(raw)
        correct = report_checks(raw)
        return (correct, raw["attempted"], raw["failed"],
                {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()})

    untraced = run_harness(workload, seed, seconds / 2, False, deadline)
    traced = run_harness(workload, seed, seconds / 2, True, deadline)
    print("[%s traced] seed=%d  %s" % (workload, seed, fingerprint(traced)))
    correct = report_checks(untraced) & report_checks(traced)
    merged = stats.merge_spans(traced["spans"], traced["reports"])
    selfs = stats.self_times(merged)
    table = layers.per_layer(traced, untraced, merged, selfs)
    print("  %-40s %14s %-6s %10s  %s" % ("per-layer metric", "value", "unit",
                                          "count", "should move"))
    rows = []
    for name, (unit, moves) in layers.PER_LAYER.items():
        value, count = table[name]
        print("  %-40s %14s %-6s %10d  %s" % (name, fmt(value), unit, count, moves))
        rows.append({"name": name, "value": value, "unit": unit,
                     "count": count, "should_move": moves})
    out_dir = os.path.join(BUILD_ROOT, "trace", "%s-seed%d" % (workload, seed))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "layers.json"), "w") as f:
        json.dump({"workload": workload, "seed": seed, "host": traced["host"],
                   "layers": rows}, f, indent=1)
    with open(os.path.join(out_dir, "chrome_trace.json"), "w") as f:
        json.dump(chrome_trace(merged, selfs), f)
    print("  wrote %s/{layers.json,chrome_trace.json}" % os.path.relpath(out_dir, ROOT))
    return (correct, untraced["attempted"] + traced["attempted"],
            untraced["failed"] + traced["failed"],
            {name: {"value": table[name][0], "unit": unit}
             for name, (unit, _) in layers.PER_LAYER.items()})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        build()
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            deadline = time.monotonic() + CHILD_TIMEOUT_S
            results.append((name, run_workload(name, args.seed, args.seconds,
                                               bool(args.trace), deadline)))
    except BenchError as e:
        log("e2ebench:", e)
        return 2

    if len(results) == 1:
        correct, attempted, failed, metrics = results[0][1]
    else:
        correct = all(r[0] for _, r in results)
        attempted = sum(r[1] for _, r in results)
        failed = sum(r[2] for _, r in results)
        metrics = {"%s:%s" % (name, k): m
                   for name, r in results for k, m in r[3].items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # a harness or parsing fault, not a failed check
        traceback.print_exc()
        sys.exit(2)
