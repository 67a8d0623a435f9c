"""Tests for the benchmark's own arithmetic (stats.py).

  python3 -m unittest discover -s e2ebench -p 'test_*.py'
"""

import json
import os
import unittest

import layers
import stats


def span(name, start, end, parent=-1, tid=0):
    return {"name": name, "tid": tid, "parent": parent, "start": start,
            "end": end, "args": {}}


class OrderStatistics(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([5, 1, 3]), 3)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(stats.median([7]), 7)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_percentile_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        # Odd count: rank = ceil(0.5 * 5) = 3.
        self.assertEqual(stats.percentile([10, 30, 20, 50, 40], 50), 30)
        # Even count: rank = ceil(0.5 * 4) = 2 (no interpolation).
        self.assertEqual(stats.percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 75), 3)
        self.assertEqual(stats.percentile([4, 1, 3, 2], 1), 1)
        with self.assertRaises(ValueError):
            stats.percentile([1, 2], 0)

    def test_percentile_needs_ten_samples_beyond(self):
        # p99 of 1000 values has exactly 10 beyond it: reported.
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.honest_percentile(list(range(1000)), 99), 989)
        # p99 of 999 values has 9 beyond it: withheld.
        self.assertEqual(stats.samples_beyond(999, 99), 9)
        self.assertIsNone(stats.honest_percentile(list(range(999)), 99))
        self.assertIsNone(stats.honest_percentile([], 50))
        # Twenty values: p50 has 10 beyond (reported), p90 has 2 (not).
        twenty = list(range(20))
        self.assertEqual(stats.honest_percentile(twenty, 50), 9)
        self.assertIsNone(stats.honest_percentile(twenty, 90))
        self.assertEqual(stats.highest_honest_percentile(twenty), (None, None))
        self.assertEqual(stats.highest_honest_percentile(list(range(100))),
                         (90.0, 89))


class SelfTime(unittest.TestCase):
    def test_nested_children(self):
        spans = [span("root", 0, 100),
                 span("a", 10, 30, parent=0),
                 span("b", 50, 90, parent=0),
                 span("a.inner", 12, 20, parent=1)]
        self.assertEqual(stats.self_times(spans), [40, 12, 40, 8])

    def test_overlapping_children_count_once(self):
        # Children on two threads of one dispatch overlap in time.
        spans = [span("root", 0, 100),
                 span("c1", 10, 60, parent=0),
                 span("c2", 40, 80, parent=0, tid=1)]
        self.assertEqual(stats.self_times(spans)[0], 30)

    def test_child_outside_parent_is_clipped(self):
        spans = [span("root", 0, 100), span("late", 90, 130, parent=0)]
        self.assertEqual(stats.self_times(spans)[0], 90)

    def test_siblings_do_not_subtract(self):
        spans = [span("x", 0, 50), span("y", 10, 40)]
        self.assertEqual(stats.self_times(spans), [50, 30])

    def test_covered_length(self):
        self.assertEqual(stats.covered_length((0, 10), []), 0)
        self.assertEqual(stats.covered_length((0, 10), [(2, 4), (3, 6), (8, 20)]), 6)
        self.assertEqual(stats.covered_length((0, 10), [(-5, -1), (12, 15)]), 0)


class MergeSpans(unittest.TestCase):
    def harness(self):
        return [
            {"name": "bench.op", "tid": 0, "parent": -1, "start_ns": 1000, "dur_ns": 1000},
            {"name": "bench.op.inner", "tid": 0, "parent": 0, "start_ns": 1100, "dur_ns": 500},
            {"name": "bench.other_thread", "tid": 1, "parent": -1, "start_ns": 1000, "dur_ns": 1000},
        ]

    def test_program_root_nests_in_innermost_same_thread_span(self):
        report = {"source": "prog", "epoch_ns": 1000, "tid": 0, "spans": [
            {"name": "prog.call", "parent": -1, "start_ns": 150, "dur_ns": 300, "args": {}},
            {"name": "prog.step", "parent": 0, "start_ns": 200, "dur_ns": 100, "args": {"rows": 3}},
        ]}
        merged = stats.merge_spans(self.harness(), [report])
        names = [s["name"] for s in merged]
        call = names.index("prog.call")
        step = names.index("prog.step")
        self.assertEqual(merged[call]["parent"], names.index("bench.op.inner"))
        self.assertEqual((merged[call]["start"], merged[call]["end"]), (1150, 1450))
        self.assertEqual(merged[step]["parent"], call)
        self.assertEqual(merged[step]["args"], {"rows": 3})
        selfs = stats.self_times(merged)
        self.assertEqual(selfs[names.index("bench.op")], 500)
        self.assertEqual(selfs[names.index("bench.op.inner")], 200)
        self.assertEqual(selfs[call], 200)
        # The other thread's span overlaps everything and stays whole.
        self.assertEqual(selfs[names.index("bench.other_thread")], 1000)

    def test_span_on_another_thread_is_never_a_child(self):
        report = {"source": "worker", "epoch_ns": 1000, "tid": 7, "spans": [
            {"name": "worker.batch", "parent": -1, "start_ns": 100, "dur_ns": 400, "args": {}},
        ]}
        merged = stats.merge_spans(self.harness(), [report])
        self.assertEqual(merged[-1]["parent"], -1)
        self.assertEqual(stats.self_times(merged)[0], 500)

    def test_open_span_is_dropped_and_children_lift(self):
        # A report taken while its outermost span was still open.
        report = {"source": "prog", "epoch_ns": 1000, "tid": 0, "spans": [
            {"name": "prog.open", "parent": -1, "start_ns": 10, "dur_ns": 0, "args": {}},
            {"name": "prog.run", "parent": 0, "start_ns": 20, "dur_ns": 60, "args": {}},
            {"name": "prog.part", "parent": 1, "start_ns": 30, "dur_ns": 10, "args": {}},
        ]}
        merged = stats.merge_spans(self.harness(), [report])
        names = [s["name"] for s in merged]
        self.assertNotIn("prog.open", names)
        run = names.index("prog.run")
        self.assertEqual(merged[run]["parent"], names.index("bench.op"))
        self.assertEqual(merged[names.index("prog.part")]["parent"], run)

    def test_root_outside_every_span_stays_a_root(self):
        report = {"source": "prog", "epoch_ns": 5000, "tid": 0, "spans": [
            {"name": "prog.late", "parent": -1, "start_ns": 0, "dur_ns": 10, "args": {}},
        ]}
        merged = stats.merge_spans(self.harness(), [report])
        self.assertEqual(merged[-1]["parent"], -1)


def raw_run(workload, samples, values=None, setup_cpu_s=(0.3, 0.1, 0.2)):
    return {"workload": workload, "samples": samples, "values": values or {},
            "setup_s": [2 * x for x in setup_cpu_s],
            "setup_cpu_s": list(setup_cpu_s), "peak_rss_mb": 90.0}


class EndToEnd(unittest.TestCase):
    def test_detect_gates_the_median_call_in_cpu_time(self):
        raw = raw_run("detect", {"run_ms": [300, 100, 200, 250],
                                 "run_cpu_ms": [280, 90, 190, 240]},
                      {"working_rss_mb": 40.0})
        m = layers.end_to_end(raw)
        self.assertEqual(m["op_ms"], (215, "ms", 4))
        self.assertEqual(m["setup_s"], (0.2, "s", 3))
        self.assertEqual(m["peak_rss_mb"], (40.0, "MB", 1))
        f = layers.figures(raw)
        self.assertEqual(f["op_wall_ms"], (225, "ms", 4))
        self.assertAlmostEqual(f["ops_per_s"][0], 1e3 / 225)
        self.assertEqual(f["setup_wall_s"], (0.4, "s", 3))

    def test_ingest_mixes_nine_attribute_epochs_to_one_topology_epoch(self):
        raw = raw_run("ingest", {
            "fresh_attr_ms": [40, 50, 60], "fresh_topo_ms": [300, 400],
            "fresh_attr_cpu_ms": [30, 40, 50], "fresh_topo_cpu_ms": [500]})
        m = layers.end_to_end(raw)
        # (9 * 40 ms + 500 ms) / 10 epochs.
        self.assertEqual(m["op_ms"], (86, "ms", 4))
        # Without a working-set mark the end-of-run peak stands in.
        self.assertEqual(m["peak_rss_mb"][0], 90.0)
        f = layers.figures(raw)
        self.assertEqual(f["op_wall_ms"][0], 50)
        # One cycle: 9 * 50 ms + 350 ms = 0.8 s for 10 epochs.
        self.assertAlmostEqual(f["ops_per_s"][0], 12.5)

    def test_serve_gates_wall_latency(self):
        raw = raw_run("serve", {"request_us": [80, 100, 120, 90]},
                      {"window_s": 2.0, "window_cpu_s": 0.002})
        m = layers.end_to_end(raw)
        self.assertAlmostEqual(m["op_ms"][0], 0.095)
        self.assertEqual(m["setup_s"], (0.4, "s", 3))
        f = layers.figures(raw)
        self.assertAlmostEqual(f["op_cpu_ms"][0], 0.5)
        self.assertAlmostEqual(f["ops_per_s"][0], 2.0)

    def test_no_samples_reads_zero(self):
        raw = raw_run("serve", {}, {"window_s": 2.0, "window_cpu_s": 1.0})
        self.assertEqual(layers.end_to_end(raw)["op_ms"][0], 0.0)
        self.assertEqual(layers.figures(raw)["op_cpu_ms"][0], 0.0)
        self.assertEqual(layers.figures(raw)["ops_per_s"][0], 0.0)
        raw = raw_run("ingest", {"fresh_attr_cpu_ms": [30]})
        self.assertEqual(layers.end_to_end(raw)["op_ms"][0], 0.0)


class BenchmarkDefinition(unittest.TestCase):
    def test_per_layer_list_matches_benchmark_json(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                            "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside the benchmark")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(n, u) for n, (u, _) in layers.PER_LAYER.items()])
        self.assertEqual(sorted(m["name"] for m in spec["end_to_end"]),
                         ["op_ms", "peak_rss_mb", "setup_s"])


if __name__ == "__main__":
    unittest.main()
