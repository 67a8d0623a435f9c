"""End-to-end and per-layer metrics computed from the harness's raw
JSON (see main.cc). Metric names, units and directions match
BENCHMARK.json; README.md explains each one.
"""

import stats

# Operation counted by each workload's metrics.
OPERATION = {
    "detect": "one timed eval::RunGale call",
    "ingest": "one attribute/label epoch, delta to served score",
    "serve": "one request through the RequestBatcher",
}

# Per-layer metric -> (unit, end-to-end figures it should move). op_ms is
# gated; op_wall_ms, op_cpu_ms and ops_per_s are printed beside it.
_DETECT = "detect op_ms, op_wall_ms"
_INGEST = "ingest op_ms, op_wall_ms, ops_per_s"
_INGEST_TOPO = "ingest op_ms, ops_per_s"
_SERVE = "serve op_ms, op_cpu_ms, ops_per_s"
PER_LAYER = {
    "util.parallel.dispatch_us": ("us", "ingest op_ms; " + _SERVE),
    "la.kmeans_s": ("s", _DETECT),
    "la.kmeans.iterations": ("count", _DETECT),
    "core.train_s": ("s", _DETECT),
    "core.sgan.epochs": ("count", _DETECT),
    "core.sgan.epoch_ms": ("ms", _DETECT),
    "core.select_s": ("s", _DETECT),
    "core.selector.greedy_scan_s": ("s", _DETECT),
    "core.selector.distance_cache_hit_ratio": ("ratio", _DETECT),
    "core.selector.nodes_unchanged_ratio": ("ratio", _DETECT),
    "prop.ppr.batch_s": ("s", _DETECT + "; " + _INGEST_TOPO),
    "prop.ppr.rows": ("count", _DETECT + "; " + _INGEST_TOPO),
    "prop.ppr.ms_per_row": ("ms", _DETECT + "; " + _INGEST_TOPO),
    "graph.encode_ms": ("ms", _INGEST),
    "store.apply_ms": ("ms", _INGEST),
    "store.publish.walk_ms": ("ms", _INGEST_TOPO),
    "store.publish.assemble_ms": ("ms", _INGEST),
    "store.ppr_reuse_ratio": ("ratio", _INGEST),
    "store.full_rebuilds": ("count", _INGEST_TOPO),
    "store.rows_invalidated": ("count", _INGEST),
    "store.log.append_ms": ("ms", _INGEST),
    "store.log.read_s": ("s", "none gated (recovery)"),
    "store.replay_s": ("s", "none gated (recovery)"),
    "store.fresh_topo_ms": ("ms", _INGEST_TOPO),
    "serve.scorer.us_per_node": ("us", _SERVE + "; ingest op_ms, op_wall_ms"),
    "serve.scorer.warm_ms": ("ms", "ingest op_ms, op_wall_ms"),
    "serve.batch_size_mean": ("count", _SERVE),
    "serve.dedup_ratio": ("ratio", "serve op_cpu_ms, ops_per_s"),
    "serve.p99_us": ("us", "serve op_ms"),
    "serve.p999_us": ("us", "serve op_ms"),
    "serve.rejected": ("count", "serve ops_per_s"),
    "obs.trace_overhead_pct": ("%", "none"),
}


def _median_or_zero(values):
    return stats.median(values) if values else 0.0


# The clock each workload's gated times use. detect runs single-threaded,
# so its CPU time is its wall time less what the hypervisor stole; ingest
# is compute on the default pool; a serve request's latency is mostly
# waiting (coalescing, thread hand-offs), which only wall time shows.
CLOCK = {"detect": "cpu", "ingest": "cpu", "serve": "wall"}


def op_samples_ms(raw):
    """The run's operation latencies (ms, wall clock): timed RunGale calls
    (detect), attribute/label epochs (ingest), requests that completed in
    the measured window (serve)."""
    s = raw["samples"]
    if raw["workload"] == "detect":
        return s.get("run_ms", [])
    if raw["workload"] == "ingest":
        return s.get("fresh_attr_ms", [])
    return [us / 1e3 for us in s.get("request_us", [])]


def _mix_ms(attr, topo):
    """Per-epoch time at the stream's fixed mix of nine attribute/label
    epochs to one topology epoch, from each kind's median."""
    return (9 * stats.median(attr) + stats.median(topo)) / 10 if attr and topo else 0.0


def figures(raw):
    """{name: (value, unit, sample count)} for everything a run reports
    about its operations, in both clocks.

    op_wall_ms is the median of op_samples_ms. op_cpu_ms is the process's
    CPU time per operation: the median over timed RunGale calls (detect);
    per epoch at the 9:1 mix (ingest); the window's CPU time over the
    requests completed in it (serve). ops_per_s is throughput: the inverse
    median call time (detect, calls run back to back); epochs per second
    at the 9:1 mix of wall times (ingest); requests completed in the window
    per second of it (serve). setup_cpu_s and setup_wall_s are medians
    over the set-up repetitions.
    """
    s = raw["samples"]
    ops = op_samples_ms(raw)
    wall_ms = _median_or_zero(ops)
    if raw["workload"] == "detect":
        cpu = s.get("run_cpu_ms", [])
        cpu_ms, cpu_n = _median_or_zero(cpu), len(cpu)
        ops_per_s = 1e3 / wall_ms if wall_ms else 0.0
    elif raw["workload"] == "ingest":
        attr = s.get("fresh_attr_cpu_ms", [])
        topo = s.get("fresh_topo_cpu_ms", [])
        cpu_ms, cpu_n = _mix_ms(attr, topo), len(attr) + len(topo)
        cycle_ms = 10 * _mix_ms(ops, s.get("fresh_topo_ms", []))
        ops_per_s = 10 / (cycle_ms / 1e3) if cycle_ms else 0.0
    else:
        requests = len(ops)
        cpu_ms = (1e3 * raw["values"].get("window_cpu_s", 0.0) / requests
                  if requests else 0.0)
        cpu_n = requests
        window_s = raw["values"].get("window_s", 0.0)
        ops_per_s = requests / window_s if window_s else 0.0
    return {
        "op_wall_ms": (wall_ms, "ms", len(ops)),
        "op_cpu_ms": (cpu_ms, "ms", cpu_n),
        "ops_per_s": (ops_per_s, "1/s", len(ops)),
        "setup_wall_s": (_median_or_zero(raw["setup_s"]), "s", len(raw["setup_s"])),
        "setup_cpu_s": (_median_or_zero(raw["setup_cpu_s"]), "s",
                        len(raw["setup_cpu_s"])),
    }


def end_to_end(raw):
    """{name: (value, unit, sample count)} for the gated metrics: op_ms and
    setup_s in the workload's CLOCK, and the working-set peak RSS."""
    f = figures(raw)
    clock = CLOCK[raw["workload"]]
    return {
        "op_ms": f["op_%s_ms" % clock],
        "peak_rss_mb": (raw["values"].get("working_rss_mb", raw["peak_rss_mb"]), "MB", 1),
        "setup_s": f["setup_%s_s" % clock],
    }


# Harness spans whose subtrees are set-up or recovery, not the measured
# operations; per-operation layer figures leave them out.
_OUTSIDE_OPS = ("bench.detect.prepare", "bench.ingest.setup",
                "bench.ingest.replay", "bench.serve.setup")


def per_layer(traced, untraced, merged, selfs):
    """{name: (value, count)} for every PER_LAYER metric. `merged` and
    `selfs` are the merged span list and its self times (stats.py)."""
    samples = traced["samples"]
    # Operations the traced run performed, warm-up included: the spans
    # cover all of them.
    ops = max(1, {"detect": traced["attempted"],
                  "ingest": traced["values"].get("epochs", 0),
                  "serve": len(samples.get("request_us", []))}[traced["workload"]])

    def root_name(i):
        while merged[i]["parent"] >= 0:
            i = merged[i]["parent"]
        return merged[i]["name"]

    by_name = {}
    for i, span in enumerate(merged):
        if root_name(i) not in _OUTSIDE_OPS:
            by_name.setdefault(span["name"], []).append(i)

    def durations_ms(name, use_self=False):
        return [(selfs[i] if use_self else merged[i]["end"] - merged[i]["start"]) / 1e6
                for i in by_name.get(name, ())]

    def per_op_s(name, use_self=False):
        d = durations_ms(name, use_self)
        return sum(d) / 1e3 / ops, len(d)

    def median_ms(name, use_self=False):
        d = durations_ms(name, use_self)
        return _median_or_zero(d), len(d)

    def arg_sum(name, key):
        return sum(merged[i]["args"].get(key, 0.0) for i in by_name.get(name, ()))

    def counters(source):
        out = {}
        for report in traced["reports"]:
            if report["source"] == source:
                for k, c in report["counters"].items():
                    out[k] = out.get(k, 0) + c
        return out

    def ratio(num, den):
        return (num / den if den else 0.0), den

    def sample_median(name, scale=1.0):
        values = samples.get(name, [])
        return _median_or_zero(values) * scale, len(values)

    out = {}
    out["util.parallel.dispatch_us"] = sample_median("dispatch_us")

    out["la.kmeans_s"] = per_op_s("gale.la.kmeans")
    out["la.kmeans.iterations"] = (arg_sum("gale.la.kmeans", "iterations") / ops,
                                   out["la.kmeans_s"][1])
    out["core.train_s"] = per_op_s("gale.core.train")
    epoch_ms, epochs = median_ms("gale.core.sgan.epoch")
    out["core.sgan.epochs"] = (epochs / ops, epochs)
    out["core.sgan.epoch_ms"] = (epoch_ms, epochs)
    out["core.select_s"] = per_op_s("gale.core.select", use_self=True)
    out["core.selector.greedy_scan_s"] = per_op_s("gale.core.selector.greedy_scan")
    gale = counters("gale.run")
    hits = gale.get("gale.core.selector.distance_cache_hits", 0)
    misses = gale.get("gale.core.selector.distance_cache_misses", 0)
    out["core.selector.distance_cache_hit_ratio"] = ratio(hits, hits + misses)
    unchanged = gale.get("gale.core.selector.nodes_unchanged", 0)
    changed = gale.get("gale.core.selector.nodes_changed", 0)
    out["core.selector.nodes_unchanged_ratio"] = ratio(unchanged, unchanged + changed)

    ppr_s, ppr_n = per_op_s("gale.prop.ppr.batch")
    out["prop.ppr.batch_s"] = (ppr_s, ppr_n)
    rows = arg_sum("gale.prop.ppr.batch", "rows")
    out["prop.ppr.rows"] = (rows / ops, ppr_n)
    out["prop.ppr.ms_per_row"] = (ppr_s * ops * 1e3 / rows if rows else 0.0, int(rows))

    out["graph.encode_ms"] = median_ms("gale.store.publish.encode", use_self=True)
    out["store.apply_ms"] = median_ms("gale.store.apply")
    out["store.publish.walk_ms"] = median_ms("gale.store.publish.walk")
    out["store.publish.assemble_ms"] = median_ms("gale.store.publish.assemble")
    seeds = arg_sum("gale.store.publish.ppr", "seeds")
    refreshed = arg_sum("gale.store.publish.ppr", "refreshed")
    out["store.ppr_reuse_ratio"] = ratio(seeds - refreshed, seeds)
    publishes = len(by_name.get("gale.store.publish", ()))
    out["store.full_rebuilds"] = (len(by_name.get("gale.store.publish.walk", ())) / ops,
                                  publishes)
    out["store.rows_invalidated"] = (arg_sum("gale.store.publish", "dirty_rows") / ops,
                                     publishes)
    out["store.log.append_ms"] = median_ms("bench.ingest.log_append")
    recovery = {merged[i]["name"]: (merged[i]["end"] - merged[i]["start"]) / 1e9
                for i in range(len(merged))
                if merged[i]["name"] in ("bench.ingest.log_read", "bench.ingest.replay")}
    out["store.log.read_s"] = (recovery.get("bench.ingest.log_read", 0.0),
                               int("bench.ingest.log_read" in recovery))
    out["store.replay_s"] = (recovery.get("bench.ingest.replay", 0.0),
                             int("bench.ingest.replay" in recovery))
    out["store.fresh_topo_ms"] = sample_median("fresh_topo_ms")

    out["serve.scorer.us_per_node"] = sample_median("scorer_batch64_us", 1 / 64)
    out["serve.scorer.warm_ms"] = sample_median("scorer_warm_ms")
    batches = by_name.get("gale.serve.batch", ())
    unique_nodes = arg_sum("gale.serve.batch", "unique_nodes")
    out["serve.batch_size_mean"] = ratio(unique_nodes, len(batches))
    served = counters("serve.batcher")
    requested = served.get("gale.serve.nodes", 0)
    out["serve.dedup_ratio"] = ((1 - unique_nodes / requested) if requested else 0.0,
                                requested)
    latency = samples.get("request_us", [])
    for name, q in (("serve.p99_us", 99.0), ("serve.p999_us", 99.9)):
        value = stats.honest_percentile(latency, q)
        out[name] = (value if value is not None else 0.0, len(latency))
    out["serve.rejected"] = (served.get("gale.serve.rejected", 0),
                             served.get("gale.serve.requests", 0))

    base = end_to_end(untraced)["op_ms"][0]
    traced_op, _, traced_n = end_to_end(traced)["op_ms"]
    out["obs.trace_overhead_pct"] = (
        100.0 * (traced_op - base) / base if base else 0.0, traced_n)
    return out
