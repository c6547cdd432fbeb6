#!/usr/bin/env python3
"""Unit tests for validate_bench.py — the EXTRAS table and its gates.

Every committed baseline must pass; each CI gate must accept its bound and
reject a value just past it, on its owner's records only; required values,
unknown experiments, unexpected keys, bad counter names and duplicate keys
must each fail.  The gates are spelled out here rather than read from
EXTRAS, so dropping or loosening one fails a test.

Run: python3 scripts/test_validate_bench.py  (stdlib only, no deps)
"""
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import validate_bench  # noqa: E402

BASELINES = os.path.join(HERE, os.pardir, "bench", "baselines")

# (owner, key): (bound, threshold, a value just past the threshold)
GATES = {
    ("a3", "filter_hit_rate"): ("min", 0.9, 0.8999),
    ("a3", "filter_misses_per_comparison"): ("max", 0.89, 0.8901),
    ("a3", "searches_per_event"): ("max", 3.51, 3.5101),
    ("o1", "trace_overhead_pct"): ("max", 5, 5.001),
    ("o2", "explain_overhead_pct"): ("max", 5, 5.001),
    ("o2", "hot_coverage_pct"): ("min", 80, 79.999),
    ("s3", "prune_rate"): ("min", 0.9, 0.8999),
    ("s3", "per_event_growth"): ("max", 2.0, 2.001),
    ("w1", "agg_speedup_vs_rescan"): ("min", 5, 4.999),
}

# (owner, key): a value other than the required one
WRONG_REQUIRED = {
    ("s1", "recover_identical"): False,
    ("s2", "divergence_detected"): True,
    ("s3", "identical_to_exact"): False,
    ("w1", "agg_identical"): False,
    ("w1", "alibi_identical"): False,
    ("o1", "final_lag_updates"): 3.0,
}


def baseline(exp):
    with open(os.path.join(BASELINES, "BENCH_%s.json" % exp)) as fh:
        return json.load(fh)


class ValidateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def problems_of_text(self, text):
        path = os.path.join(self.dir.name, "BENCH_x.json")
        with open(path, "w") as fh:
            fh.write(text)
        return list(validate_bench.problems(path))

    def problems(self, doc):
        return self.problems_of_text(json.dumps(doc))

    def test_committed_baselines_pass(self):
        names = sorted(os.listdir(BASELINES))
        self.assertTrue(names)
        for name in names:
            with open(os.path.join(BASELINES, name)) as fh:
                self.assertEqual(self.problems(json.load(fh)), [], name)

    def test_table_declares_exactly_these_gates(self):
        declared = {(owner, key): extra.gate
                    for key, extra in validate_bench.EXTRAS.items()
                    if extra.gate for owner in extra.owners.split()}
        self.assertEqual(declared, {k: (bound, x)
                                    for k, (bound, x, _) in GATES.items()})

    def test_gate_bound_passes_and_just_past_fails(self):
        for (exp, key), (_, x, past) in GATES.items():
            self.assertEqual(self.problems(dict(baseline(exp), **{key: x})),
                             [], key)
            msgs = self.problems(dict(baseline(exp), **{key: past}))
            self.assertEqual(len(msgs), 1, (key, msgs))
            self.assertIn(key, msgs[0])

    def test_gate_ignored_outside_its_owner(self):
        for (exp, key), (_, _, past) in GATES.items():
            other = "w1" if exp != "w1" else "a3"
            self.assertEqual(self.problems(dict(baseline(other),
                                                **{key: past})), [], key)

    def test_gated_key_missing_from_owner_fails(self):
        for exp, key in GATES:
            doc = baseline(exp)
            del doc[key]
            msgs = self.problems(doc)
            self.assertEqual(len(msgs), 1, (key, msgs))
            self.assertIn("'%s' missing" % key, msgs[0])

    def test_gated_key_missing_elsewhere_passes(self):
        doc = baseline("s1")
        for _, key in GATES:
            self.assertNotIn(key, doc)
        self.assertEqual(self.problems(doc), [])

    def test_required_values(self):
        for (exp, key), wrong in WRONG_REQUIRED.items():
            msgs = self.problems(dict(baseline(exp), **{key: wrong}))
            self.assertEqual(len(msgs), 1, (key, msgs))
            self.assertIn("'%s' must be" % key, msgs[0])

    def test_orderings(self):
        for exp, lo, hi in [("s1", "p50_ms", "p99_ms"),
                            ("o1", "e2e_p50_ms", "e2e_p99_ms"),
                            ("o2", "hot_top5_comparisons",
                             "hot_total_comparisons"),
                            ("w1", "alibi_meets", "alibi_cases")]:
            doc = baseline(exp)
            doc[lo], doc[hi] = doc[hi], doc[lo]
            self.assertIn("'%s' must be <= '%s'" % (lo, hi),
                          self.problems(doc))

    def test_duplicate_key_fails(self):
        text = json.dumps(baseline("s2"))[:-1] + ', "followers": 2}'
        msgs = self.problems_of_text(text)
        self.assertEqual(len(msgs), 1)
        self.assertIn("duplicate key 'followers'", msgs[0])

    def test_unknown_exp_fails(self):
        msgs = self.problems(dict(baseline("s2"), exp="s9"))
        self.assertEqual(len(msgs), 1)
        self.assertIn("not a known experiment id", msgs[0])

    def test_unexpected_key_fails(self):
        msgs = self.problems(dict(baseline("s2"), speedup=3.0))
        self.assertEqual(msgs, ["unexpected keys: speedup"])

    def test_bad_counter_name_fails(self):
        doc = baseline("a3")
        doc["counters"]["filter_hits"] = 1.0
        msgs = self.problems(doc)
        self.assertEqual(len(msgs), 1)
        self.assertIn("not a moq_* snake_case metric name", msgs[0])


if __name__ == "__main__":
    unittest.main()
