"""Tests for the benchmark's own arithmetic (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import unittest

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 0.5), 50)
        self.assertEqual(metrics.percentile(values, 0.99), 99)
        self.assertEqual(metrics.percentile([7], 0.99), 7)

    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(metrics.beyond(1000, 0.99), 10)
        self.assertEqual(metrics.beyond(999, 0.99), 9)
        value, n = metrics.tail_percentile(list(range(1000)))
        self.assertEqual((value, n), (989, 1000))
        value, n = metrics.tail_percentile(list(range(999)))
        self.assertIsNone(value)
        self.assertEqual(n, 999)

    def test_p99_ignores_sample_order(self):
        values = [float(v) for v in range(2000)]
        shuffled = values[1::2] + values[0::2]
        self.assertEqual(metrics.tail_percentile(values),
                         metrics.tail_percentile(shuffled))


class CategoryTest(unittest.TestCase):
    def test_split_by_category(self):
        samples = [[0, 0, 1.0], [1, 0, 2.0], [2, 1, 3.0], [3, 3, 4.0]]
        split = metrics.split_by_category(samples)
        self.assertEqual(split, {"fcfr": [1.0, 2.0], "fcmr": [3.0],
                                 "mcfr": [], "mcmr": [4.0]})

    def test_split_by_shape(self):
        samples = [[2, 1, 3.0], [0, 0, 1.0], [2, 1, 5.0]]
        split = metrics.split_by_shape(samples, ["POINTQ", "TOPK", "SCAN"])
        self.assertEqual(split, {"POINTQ": [1.0], "SCAN": [3.0, 5.0]})
        self.assertEqual(list(split), ["POINTQ", "SCAN"])

    def test_category_medians_in_ms(self):
        raw = _raw(samples=[[0, 0, 0.001], [0, 0, 0.003], [0, 1, 0.010],
                            [0, 2, 0.020], [0, 3, 0.040]])
        m = metrics.end_to_end(raw)
        self.assertAlmostEqual(m["fcfr_p50_ms"], 2.0)
        self.assertAlmostEqual(m["fcmr_p50_ms"], 10.0)
        self.assertAlmostEqual(m["mcmr_p50_ms"], 40.0)
        self.assertIsNone(m["query_p99_ms"])  # 5 samples: p99 does not hold


class IngestAndStorageTest(unittest.TestCase):
    def test_ingest_uses_the_median_checkpoint(self):
        # 2.5M float32 activations = 10 MB per checkpoint; median 2 s.
        unit = {"dnn": 2.5e6}
        self.assertAlmostEqual(metrics.ingest_mb_s(unit, [1.0, 2.0, 40.0]),
                               5.0)
        self.assertAlmostEqual(metrics.ingest_mb_s(unit, [1.0, 3.0]), 5.0)
        self.assertIsNone(metrics.ingest_mb_s(unit, []))

    def test_imported_values_count_eight_bytes(self):
        self.assertAlmostEqual(metrics.ingest_mb_s({"trad": 1e6}, [2.0]), 4.0)

    def test_storage_ratio_denominator(self):
        live = {"dnn": 1000, "trad": 500}  # 4000 + 4000 raw bytes
        self.assertEqual(metrics.raw_bytes(live), 8000)
        self.assertAlmostEqual(metrics.storage_ratio(2000, live), 0.25)
        self.assertIsNone(metrics.storage_ratio(2000, {}))


class SpanTest(unittest.TestCase):
    # [id, parent, op, name, start, end, work]
    SPANS = [
        [1, 0, 7, "op", 0.0, 10.0, 0],
        [2, 1, 7, "core.fetch", 1.0, 4.0, 0],
        [3, 1, 7, "diagnostics.topk", 3.0, 6.0, 0],  # overlaps its sibling
        [4, 2, 7, "leaf", 2.0, 3.0, 0],
        [5, 0, 8, "op", 0.0, 2.0, 0],
        [6, 5, 8, "late", 1.5, 3.0, 0],  # runs past its parent
    ]

    def test_self_time_is_span_minus_children(self):
        selfs = metrics.self_times(self.SPANS)
        self.assertAlmostEqual(selfs[1], 10.0 - 5.0)  # children cover [1, 6]
        self.assertAlmostEqual(selfs[2], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[3], 3.0)
        self.assertAlmostEqual(selfs[5], 2.0 - 0.5)
        self.assertAlmostEqual(selfs[6], 1.5)

    def test_differences_and_rates(self):
        spans = [
            [1, 0, 1, "cluster.router_scan", 0.0, 0.010, 0],
            [2, 0, 1, "net.direct_scan", 0.0, 0.004, 0],
            [3, 0, 1, "net.direct_scan", 0.0, 0.006, 0],
            [4, 0, 2, "quantize.decode", 0.0, 0.5, 1e6],
            [5, 0, 2, "quantize.decode", 0.0, 1.5, 3e6],
        ]
        idx = metrics.SpanIndex(spans)
        self.assertAlmostEqual(
            idx.op_diff_us("cluster.router_scan", "net.direct_scan",
                           inner_max=True), 4000.0)
        self.assertAlmostEqual(idx.rate_m("quantize.decode"), 2.0)


class BenchmarkFileTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metric_tables(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json next to perfbench/")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]],
            list(metrics.END_TO_END))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            list(metrics.PER_LAYER))


def _raw(samples):
    return {
        "timed": {"attempted": len(samples), "errors": 0, "wrong": 0,
                  "samples": samples},
        "setup_s": [1.0, 3.0, 2.0],
        "measured_s": 1.0,
        "ingest_unit": {"dnn": 1e6},
        "ingest_s": [1.0],
        "footprint_bytes": 1e6,
        "live": {"dnn": 1e6},
        "peak_rss_kb": 1024.0,
    }


if __name__ == "__main__":
    unittest.main()
