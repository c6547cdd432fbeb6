#!/usr/bin/env python3
"""Unit tests for bench_compare.py — the regression gate itself.

The gate guards every bench trajectory in CI, so it gets its own tests:
a synthetic baseline against a regressed record (must fail), an improved
record (must pass), a record missing an extra the baseline carries (must
fail — the trajectory stays comparable), and the latency noise floor,
which covers millisecond keys only.

Run: python3 scripts/test_bench_compare.py  (stdlib only, no deps)
"""
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_compare  # noqa: E402


BASE = {
    "exp": "o2", "n": 16, "seed": 6, "wall_s": 10.0,
    "rps_obs_off": 100.0, "rps_obs_on": 95.0,
    "hot_coverage_pct": 85.0, "p99_ms": 40.0,
    "counters": {"moq_sweep_events_total": 10},
}


def diffs(fresh, base):
    return list(bench_compare.compare(fresh, base))


class CompareTest(unittest.TestCase):
    def test_identical_passes(self):
        self.assertEqual(diffs(dict(BASE), dict(BASE)), [])

    def test_throughput_regression_fails(self):
        fresh = dict(BASE, rps_obs_on=70.0)  # -26% vs allowed -20%
        msgs = diffs(fresh, BASE)
        self.assertEqual(len(msgs), 1)
        self.assertIn("rps_obs_on regressed", msgs[0])

    def test_throughput_within_threshold_passes(self):
        fresh = dict(BASE, rps_obs_on=85.0)  # -10.5%, inside -20%
        self.assertEqual(diffs(fresh, BASE), [])

    def test_improvement_passes(self):
        fresh = dict(BASE, rps_obs_off=140.0, rps_obs_on=130.0,
                     hot_coverage_pct=95.0, p99_ms=20.0)
        self.assertEqual(diffs(fresh, BASE), [])

    def test_coverage_drop_fails(self):
        fresh = dict(BASE, hot_coverage_pct=60.0)  # -29%
        msgs = diffs(fresh, BASE)
        self.assertEqual(len(msgs), 1)
        self.assertIn("hot_coverage_pct regressed", msgs[0])

    def test_latency_regression_fails(self):
        fresh = dict(BASE, p99_ms=60.0)  # +50% vs allowed +20%
        msgs = diffs(fresh, BASE)
        self.assertEqual(len(msgs), 1)
        self.assertIn("p99_ms regressed", msgs[0])

    def test_latency_under_noise_floor_skipped(self):
        base = dict(BASE, p99_ms=0.2)
        fresh = dict(base, p99_ms=0.9)  # 4.5x, but both sub-millisecond
        self.assertEqual(diffs(fresh, base), [])

    def test_ratio_below_one_not_under_noise_floor(self):
        # per_event_growth is a unitless ratio, not a latency: a regression
        # from 0.5 to 0.9 must fail although both sides read below 1.0
        base = {"exp": "s3", "per_event_growth": 0.5, "prune_rate": 0.99}
        msgs = diffs(dict(base, per_event_growth=0.9), base)
        self.assertEqual(len(msgs), 1)
        self.assertIn("per_event_growth regressed", msgs[0])

    def test_merit_keys_match_extras_table(self):
        higher = sorted(k for k, v in bench_compare.MERIT.items()
                        if v == "higher")
        lower = sorted(k for k, v in bench_compare.MERIT.items()
                       if v == "lower")
        self.assertEqual(higher, sorted([
            "rps", "agg_query_rps", "rps_trace_off", "rps_trace_on",
            "rps_obs_off", "rps_obs_on", "speedup_vs_exact",
            "hot_coverage_pct", "prune_rate", "agg_speedup_vs_rescan"]))
        self.assertEqual(lower, sorted([
            "p50_ms", "p99_ms", "primary_p99_ms", "e2e_p50_ms",
            "e2e_p99_ms", "per_event_growth",
            "filter_misses_per_comparison", "searches_per_event"]))

    def test_missing_extra_in_fresh_fails(self):
        fresh = dict(BASE)
        del fresh["hot_coverage_pct"]
        msgs = diffs(fresh, BASE)
        self.assertEqual(len(msgs), 1)
        self.assertIn("'hot_coverage_pct' present in baseline only", msgs[0])

    def test_missing_extra_in_baseline_fails(self):
        base = dict(BASE)
        del base["rps_obs_off"]
        msgs = diffs(dict(BASE), base)
        self.assertEqual(len(msgs), 1)
        self.assertIn("'rps_obs_off' present in fresh record only", msgs[0])

    def test_non_numeric_fails(self):
        fresh = dict(BASE, rps_obs_on="fast")
        msgs = diffs(fresh, BASE)
        self.assertEqual(len(msgs), 1)
        self.assertIn("not numeric", msgs[0])


class MainTest(unittest.TestCase):
    """End-to-end through main(): file discovery, exp mismatch, exit code."""

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.base_dir = os.path.join(self.dir.name, "baselines")
        os.mkdir(self.base_dir)

    def tearDown(self):
        self.dir.cleanup()

    def write(self, where, name, doc):
        path = os.path.join(where, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def run_main(self, fresh_doc, base_doc=BASE, name="BENCH_o2.json"):
        self.write(self.base_dir, name, base_doc)
        fresh = self.write(self.dir.name, name, fresh_doc)
        return bench_compare.main(["--baseline-dir", self.base_dir, fresh])

    def test_ok_exit_zero(self):
        self.assertEqual(self.run_main(dict(BASE)), 0)

    def test_regression_exit_nonzero(self):
        self.assertEqual(self.run_main(dict(BASE, rps_obs_on=10.0)), 1)

    def test_exp_mismatch_exit_nonzero(self):
        self.assertEqual(self.run_main(dict(BASE, exp="o1")), 1)

    def test_missing_baseline_exit_nonzero(self):
        fresh = self.write(self.dir.name, "BENCH_zz.json", dict(BASE))
        self.assertEqual(
            bench_compare.main(["--baseline-dir", self.base_dir, fresh]), 1)


if __name__ == "__main__":
    unittest.main()
