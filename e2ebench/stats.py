"""The benchmark's arithmetic: order statistics, the honest-percentile
rule, and self time over the merged harness + program span tree.

Everything here is a pure function of its arguments; test_stats.py
covers it.
"""

import math
import statistics


def median(values):
    """Median; the mean of the two middle values at an even count."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of
    the values at or below it (q in (0, 100])."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 < q <= 100:
        raise ValueError("percentile q out of (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count, q):
    """How many of `count` values lie above the nearest-rank q-th
    percentile."""
    return count - max(1, math.ceil(q / 100.0 * count))


def honest_percentile(values, q, min_beyond=10):
    """The q-th percentile, or None when fewer than `min_beyond` samples
    lie beyond it (the tail is then too thin to report)."""
    if not values or samples_beyond(len(values), q) < min_beyond:
        return None
    return percentile(values, q)


def highest_honest_percentile(values, candidates=(99.9, 99.0, 90.0)):
    """(q, value) for the highest candidate percentile that has at least
    ten samples beyond it, or (None, None)."""
    for q in candidates:
        value = honest_percentile(values, q)
        if value is not None:
            return q, value
    return None, None


# --- span trees ----------------------------------------------------------
#
# A span is a dict with "name", "tid", "start" and "end" (ns, one time
# base), "parent" (index into the same list, or -1) and optional "args"
# and "source".


def merge_spans(harness_spans, reports):
    """One span list from the harness's spans and the program's reports.

    harness_spans: [{"name", "tid", "parent", "start_ns", "dur_ns"}] on
      the absolute clock, parents already set (per-thread nesting).
    reports: [{"source", "epoch_ns", "tid", "spans": [{"name", "parent",
      "start_ns", "dur_ns", "args"}]}], span times relative to epoch_ns.

    A program span with dur_ns == 0 was still open when its report was
    taken; it is dropped and its children move to its parent. A program
    root is attached to the innermost harness span on the same thread
    whose interval holds the root's midpoint; spans on other threads are
    never parents.
    """
    merged = []
    for s in harness_spans:
        merged.append({
            "name": s["name"], "tid": s["tid"], "parent": s["parent"],
            "start": s["start_ns"], "end": s["start_ns"] + s["dur_ns"],
            "args": {}, "source": "harness",
        })
    by_tid = {}
    for i, s in enumerate(merged):
        by_tid.setdefault(s["tid"], []).append(i)

    for report in reports:
        spans = report["spans"]
        new_index = [None] * len(spans)
        for j, s in enumerate(spans):
            parent = s["parent"]
            while parent >= 0 and new_index[parent] is None:
                parent = spans[parent]["parent"]
            if s["dur_ns"] == 0:
                # Open at snapshot time: children inherit the nearest
                # kept ancestor through the walk above.
                continue
            start = report["epoch_ns"] + s["start_ns"]
            end = start + s["dur_ns"]
            if parent >= 0:
                merged_parent = new_index[parent]
            else:
                merged_parent = _innermost_container(
                    merged, by_tid.get(report["tid"], ()), (start + end) / 2)
            new_index[j] = len(merged)
            merged.append({
                "name": s["name"], "tid": report["tid"],
                "parent": merged_parent, "start": start, "end": end,
                "args": dict(s.get("args", {})),
                "source": report["source"],
            })
    return merged


def _innermost_container(spans, candidates, t):
    best = -1
    for i in candidates:
        s = spans[i]
        if s["start"] <= t <= s["end"] and (
                best < 0 or
                s["end"] - s["start"] < spans[best]["end"] - spans[best]["start"]):
            best = i
    return best


def covered_length(interval, pieces):
    """Length of the part of `interval` (lo, hi) covered by the union of
    `pieces` (each clipped to the interval first)."""
    lo, hi = interval
    clipped = sorted((max(lo, a), min(hi, b)) for a, b in pieces
                     if min(hi, b) > max(lo, a))
    total = 0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per span: its duration minus the part of its interval that its
    children cover (overlapping children are counted once)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        pieces = [(spans[c]["start"], spans[c]["end"]) for c in children[i]]
        out.append((s["end"] - s["start"])
                   - covered_length((s["start"], s["end"]), pieces))
    return out
