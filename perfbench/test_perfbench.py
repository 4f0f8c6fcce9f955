"""Self-checks for the benchmark's statistics, accounting and watchdog.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import re
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])

    def test_percentile_is_nearest_rank(self):
        values = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile([7], 99), 7)

    def test_tail_needs_ten_samples_beyond(self):
        # 19 samples: even p75 (rank 15) has only 4 beyond -> the median.
        self.assertEqual(stats.tail(list(range(1, 20))), (50, 10))
        # 40 samples: p90 has 4 beyond, p75 (rank 30) has exactly 10.
        self.assertEqual(stats.tail(list(range(1, 41))), (75, 30))
        # 100 samples: p99 has 1 beyond, p90 has 10.
        self.assertEqual(stats.tail(list(range(1, 101))), (90, 90))
        # 1000 samples: p99 (rank 990) has 10 beyond.
        self.assertEqual(stats.tail(list(range(1, 1001))), (99, 990))

    def test_quarter_medians_keep_run_order(self):
        self.assertEqual(stats.quarter_medians([1, 2, 3, 4, 5, 6, 7, 8]),
                         (1.5, 7.5))
        self.assertEqual(stats.quarter_medians([5]), (5, 5))

    def test_failed_ratio(self):
        self.assertEqual(stats.failed_ratio(10, 0), 0)
        self.assertEqual(stats.failed_ratio(4, 1), 0.25)
        for attempted, failed in ((0, 0), (3, 4), (3, -1)):
            with self.assertRaises(ValueError):
                stats.failed_ratio(attempted, failed)

    def test_merge_keeps_every_set_up_sample_and_the_measured_peak(self):
        cycles = {"setup_s": [1, 2], "teardown_s": [3], "peak_rss_mb": 900}
        measured = {"setup_s": [4], "teardown_s": [5], "peak_rss_mb": 100}
        merged = run.merge_summaries([cycles, measured])
        self.assertEqual(merged["setup_s"], [1, 2, 4])
        self.assertEqual(merged["teardown_s"], [3, 5])
        self.assertEqual(merged["peak_rss_mb"], 100)

    def test_tally_counts_the_unit_in_flight_of_a_broken_run(self):
        units = [{"ok": True}, {"ok": False}, {"ok": True}]
        self.assertEqual(run.tally(units, broken=False), (3, 1))
        self.assertEqual(run.tally(units, broken=True), (4, 2))
        self.assertEqual(run.tally([], broken=True), (1, 1))


def fake_run():
    def unit(kind, s, traced=False):
        return {"unit": kind, "s": s, "ok": True, "traced": traced}
    units = [unit("warm", 2.0), unit("cycle", 1.0), unit("warm", 3.0)]
    for i in range(8):
        units += [unit("par", 1.0 + i / 100, traced=i % 2 == 0),
                  unit("ser", 2.0 + i / 100)]
    summary = {"setup_s": [0.1, 0.2, 0.3], "teardown_s": [0.4, 0.5],
               "peak_rss_mb": 12.5, "layers": {}, "info": {}}
    return units, summary


def cpp_layer_names():
    """Per-layer names perfbench.cpp can emit (m["..."] and kernel table)."""
    with open(os.path.join(HERE, "perfbench.cpp")) as f:
        source = f.read()
    names = set(re.findall(r'm\["([\w.]+)"\]', source))
    names |= set(re.findall(r'"((?:interp|halton)\.\w+)"', source))
    return names


class MetricNamesTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_end_to_end_names_match_benchmark_json(self):
        units, summary = fake_run()
        computed = run.end_to_end_metrics(units, summary)
        printed = run.select_metrics(self.spec, computed, trace=0)
        self.assertEqual(list(printed),
                         [m["name"] for m in self.spec["end_to_end"]])
        self.assertEqual(printed["job_s"]["value"], stats.median(
            [u["s"] for u in units if u["unit"] == "par"]))

    def test_per_layer_names_match_benchmark_json(self):
        units, summary = fake_run()
        summary["layers"] = {name: 1.0 for name in cpp_layer_names()}
        computed = run.per_layer_metrics(units, summary)
        printed = run.select_metrics(self.spec, computed, trace=1)
        self.assertEqual(set(printed),
                         {m["name"] for m in self.spec["per_layer"]})
        self.assertEqual(printed["rt.first_job_s"]["value"], 2.0)

    def test_unknown_or_missing_names_are_refused(self):
        units, summary = fake_run()
        computed = run.end_to_end_metrics(units, summary)
        with self.assertRaises(ValueError):
            run.select_metrics(self.spec, dict(computed, extra_s=1.0), 0)
        del computed["job_s"]
        with self.assertRaises(ValueError):
            run.select_metrics(self.spec, computed, 0)

    def test_benchmark_json_lists_every_name_once(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in self.spec[key]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)
        self.assertLessEqual({w["name"] for w in self.spec["workloads"]},
                             set(run.WORKLOADS))


class WatchdogTest(unittest.TestCase):
    def child(self, body):
        return [sys.executable, "-c", "import sys, time\n" + body]

    def test_silent_child_is_killed_as_stalled(self):
        start = time.monotonic()
        records, stalled, code = run.watch(
            self.child("print(%r, flush=True)\ntime.sleep(60)"
                       % json.dumps({"unit": "par"})),
            dict(os.environ), idle_s=0.5, total_s=30)
        self.assertTrue(stalled)
        self.assertNotEqual(code, 0)
        self.assertEqual(records, [{"unit": "par"}])
        self.assertLess(time.monotonic() - start, 10)

    def test_chatty_child_still_meets_the_total_deadline(self):
        start = time.monotonic()
        _, stalled, _ = run.watch(
            self.child("while True:\n    print('{}', flush=True)\n"
                       "    time.sleep(0.05)"),
            dict(os.environ), idle_s=5, total_s=1)
        self.assertTrue(stalled)
        self.assertLess(time.monotonic() - start, 10)

    def test_finished_child_is_not_stalled(self):
        records, stalled, code = run.watch(
            self.child("print('{\"a\": 1}')\nprint('not json')"),
            dict(os.environ), idle_s=5, total_s=30)
        self.assertFalse(stalled)
        self.assertEqual(code, 0)
        self.assertEqual(records, [{"a": 1}])


if __name__ == "__main__":
    unittest.main()
