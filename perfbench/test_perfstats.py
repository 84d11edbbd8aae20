"""Tests of the benchmark's own arithmetic and of its command contract.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke test builds perfbench_bin and runs every workload once at
reduced size with all checks on (a few minutes); it runs only when
PERFBENCH_SMOKE=1.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perfstats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        # n * (1 - p/100) >= 10: 100 samples admit p90 but not p95.
        values = list(range(1, 101))
        self.assertEqual(perfstats.tail_percentile(values), (90.0, 90))
        # 336 samples: p95 leaves 16.8 beyond, p99 only 3.4.
        self.assertEqual(perfstats.tail_percentile(list(range(336)))[0],
                         95.0)
        # 1000 samples: p99 leaves exactly 10.
        self.assertEqual(perfstats.tail_percentile(list(range(1000)))[0],
                         99.0)

    def test_too_few_samples_has_no_tail(self):
        # 19 samples leave 9.5 beyond even the median.
        self.assertIsNone(perfstats.tail_percentile(list(range(19))))
        self.assertEqual(perfstats.tail_percentile(list(range(20)))[0], 50.0)

    def test_nearest_rank_percentile(self):
        values = [5, 1, 4, 2, 3]
        self.assertEqual(perfstats.percentile(values, 50), 3)
        self.assertEqual(perfstats.percentile(values, 100), 5)
        self.assertEqual(perfstats.percentile(values, 1), 1)
        self.assertEqual(perfstats.percentile(list(range(1, 101)), 90), 90)


class FailedFrac(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(perfstats.failed_frac(357, 0), 0.0)
        self.assertEqual(perfstats.failed_frac(12, 3), 0.25)
        self.assertEqual(perfstats.failed_frac(1, 1), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            perfstats.failed_frac(0, 0)
        with self.assertRaises(ValueError):
            perfstats.failed_frac(3, 4)
        with self.assertRaises(ValueError):
            perfstats.failed_frac(3, -1)


class Closure(unittest.TestCase):
    def test_sum_of_layer_terms(self):
        terms = [
            {"layer": "sim.core", "ns_per_call": 40.0,
             "calls_per_packet": 4.0},
            {"layer": "sim.link", "ns_per_call": 60.0,
             "calls_per_packet": 1.0},
            {"layer": "cc.copa", "ns_per_call": 50.0,
             "calls_per_packet": 0.5},
        ]
        # 1000 - (160 + 60 + 25)
        self.assertAlmostEqual(perfstats.closure_unexplained(1000.0, terms),
                               755.0)

    def test_over_explained_is_negative(self):
        terms = [{"layer": "x", "ns_per_call": 10.0,
                  "calls_per_packet": 20.0}]
        self.assertAlmostEqual(perfstats.closure_unexplained(150.0, terms),
                               -50.0)

    def test_no_terms_leaves_everything_unexplained(self):
        self.assertEqual(perfstats.closure_unexplained(123.0, []), 123.0)


class EndToEnd(unittest.TestCase):
    NOMINAL = perfstats.REFERENCE_NOMINAL_S

    def rep(self, parts, refs=None, one_job=False):
        refs = [self.NOMINAL] * len(parts) if refs is None else refs
        return {"wall_s": sum(parts), "sim_s": 100.0, "packets": 1000.0,
                "units": len(parts),
                "unit_wall_s": [sum(parts)] if one_job else parts,
                "parts_s": parts, "ref_s": refs}

    def report(self, reps, setup_s=(0.1,)):
        return {"reps": reps, "setup_s": list(setup_s), "peak_rss_mb": 42.0,
                "setup_ref_s": [self.NOMINAL] * len(setup_s)}

    def test_median_over_repetitions(self):
        # Repetitions of 2.0, 3.0 and 1.5 s: the run's wall time is 2.0 s;
        # the jobs are the parts, and the job time is the median of all nine.
        m = perfstats.end_to_end(self.report(
            [self.rep([0.5, 0.5, 1.0]), self.rep([1.0, 1.0, 1.0]),
             self.rep([0.5, 0.5, 0.5])], setup_s=[0.3, 0.1, 0.2]))
        self.assertAlmostEqual(m["sim_per_wall"], 50.0)
        self.assertAlmostEqual(m["packets_per_s"], 500.0)
        self.assertAlmostEqual(m["points_per_hour"], 3 * 3600.0 / 2.0)
        self.assertAlmostEqual(m["job_s_p50"], 0.5)
        self.assertAlmostEqual(m["setup_s"], 0.2)
        self.assertEqual(m["peak_rss_mb"], 42.0)

    def test_single_job_repetitions_use_the_repetition_time(self):
        # One job (a pass) per repetition: its time is the run's wall time.
        reps = [self.rep([w, w], one_job=True) for w in (0.75, 0.5, 0.25)]
        m = perfstats.end_to_end(self.report(reps))
        self.assertAlmostEqual(m["job_s_p50"], 1.0)
        self.assertAlmostEqual(m["sim_per_wall"], 100.0)

    def test_parts_are_stated_at_the_nominal_host_speed(self):
        # The host slowed down during the second part of each repetition:
        # the reference kernel took twice its nominal time right after it,
        # so that part's 2.0 s state 1.0 s.
        reps = [self.rep([1.0, 2.0], [self.NOMINAL, 2 * self.NOMINAL])
                for _ in range(3)]
        m = perfstats.end_to_end(self.report(reps))
        self.assertAlmostEqual(m["job_s_p50"], 1.0)
        self.assertAlmostEqual(m["sim_per_wall"], 50.0)
        self.assertAlmostEqual(m["packets_per_s"], 500.0)
        self.assertAlmostEqual(perfstats.host_scale(0.5 * self.NOMINAL), 2.0)
        with self.assertRaises(ValueError):
            perfstats.host_scale(0.0)

    def test_set_up_is_scaled_by_the_sample_after_each(self):
        # Set-up follows the host less than the packet path: 0.4 s next to
        # a 16x slower kernel states 0.4 / 16**0.75 = 0.05 s, so the median
        # of [0.05, 0.4, 0.1] is 0.1 where the unscaled one would be 0.4.
        self.assertEqual(perfstats.SETUP_SENSITIVITY, 0.75)
        report = self.report([self.rep([1.0])], setup_s=[0.4, 0.4, 0.1])
        report["setup_ref_s"][0] *= 16
        self.assertAlmostEqual(perfstats.end_to_end(report)["setup_s"], 0.1)
        self.assertAlmostEqual(perfstats.host_scale(16 * self.NOMINAL, 0.75),
                               0.125)

    def test_every_part_needs_a_reference_sample(self):
        with self.assertRaises(ValueError):
            perfstats.end_to_end(self.report(
                [self.rep([1.0, 1.0], [self.NOMINAL])]))

    def test_repetitions_must_do_the_same_work(self):
        a, b = self.rep([1.0, 1.0]), self.rep([1.0, 1.0])
        b["packets"] = 999.0
        with self.assertRaises(ValueError):
            perfstats.end_to_end(self.report([a, b]))

    def test_quartile_spread(self):
        # quantiles([1..9], n=4) = [2.5, 5, 7.5]
        self.assertAlmostEqual(
            perfstats.quartile_spread(list(range(1, 10))), 1.0)
        self.assertEqual(perfstats.quartile_spread([3.0] * 10), 0.0)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        ev = lambda name, i, parent, dur_us: {  # noqa: E731
            "name": name, "dur": dur_us, "args": {"id": i, "parent": parent}}
        events = [ev("pass", 1, 0, 1000.0), ev("slice", 2, 1, 300.0),
                  ev("slice", 3, 1, 200.0), ev("build", 4, 2, 100.0)]
        rows = perfstats.self_times(events)
        self.assertAlmostEqual(rows["pass"]["self_ms"], 0.5)
        self.assertEqual(rows["slice"]["count"], 2)
        self.assertAlmostEqual(rows["slice"]["total_ms"], 0.5)
        self.assertAlmostEqual(rows["slice"]["self_ms"], 0.4)
        self.assertAlmostEqual(rows["build"]["self_ms"], 0.1)


class Contract(unittest.TestCase):
    def test_benchmark_json_shape(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)

    def test_fails_without_a_result_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)


@unittest.skipUnless(os.environ.get("PERFBENCH_SMOKE") == "1",
                     "set PERFBENCH_SMOKE=1 to build and run the smoke mode")
class Smoke(unittest.TestCase):
    def test_every_workload_once_with_checks(self):
        out = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=900)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertEqual(json.loads(out.stdout.strip().splitlines()[-1]),
                         {"smoke": "ok"})


if __name__ == "__main__":
    unittest.main()
