#!/usr/bin/env python3
"""Compare fresh BENCH_<id>.json records against committed baselines.

The repo tracks a bench trajectory under bench/baselines/: one
BENCH_<id>.json per experiment, produced by `bench/main.exe -- <id>`.
This script diffs a fresh record against the baseline of the same name
and fails when an extra with a direction of merit (the `better` column of
EXTRAS in validate_bench.py) regresses by more than THRESHOLD.

A merit key present in only one of the two files is reported as an error
— the trajectory must stay comparable release over release.  Millisecond
(`_ms`) comparisons are skipped when both sides sit under MIN_LATENCY_MS:
sub-millisecond quantiles are scheduler noise, not signal.

Usage:
    bench_compare.py [--baseline-dir DIR] FILE...

Exits non-zero with one `file: message` line per regression.
"""
import argparse
import json
import os
import sys

from validate_bench import EXTRAS, is_number

THRESHOLD = 0.20  # allowed relative regression, either direction of merit
MIN_LATENCY_MS = 1.0
MERIT = {key: extra.better for key, extra in EXTRAS.items() if extra.better}


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("top level is not an object")
    return doc


def compare(fresh, base):
    for key, better in MERIT.items():
        in_f, in_b = key in fresh, key in base
        if in_f != in_b:
            yield "'%s' present in %s only" % (
                key, "fresh record" if in_f else "baseline")
            continue
        if not in_f:
            continue
        f, b = fresh[key], base[key]
        if not (is_number(f) and is_number(b)):
            yield "'%s' is not numeric on both sides" % key
            continue
        unit = " ms" if key.endswith("_ms") else ""
        if better == "higher":
            if b > 0 and f < b * (1.0 - THRESHOLD):
                yield ("%s regressed: %.3f vs baseline %.3f (-%.1f%%, "
                       "allowed -%.0f%%)"
                       % (key, f, b, 100.0 * (1.0 - f / b),
                          100.0 * THRESHOLD))
        elif unit and f < MIN_LATENCY_MS and b < MIN_LATENCY_MS:
            continue
        elif b > 0 and f > b * (1.0 + THRESHOLD):
            yield ("%s regressed: %.3f%s vs baseline %.3f%s (+%.1f%%, "
                   "allowed +%.0f%%)"
                   % (key, f, unit, b, unit, 100.0 * (f / b - 1.0),
                      100.0 * THRESHOLD))


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline-dir", default="bench/baselines",
                        metavar="DIR",
                        help="directory of committed BENCH_<id>.json records")
    parser.add_argument("files", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)
    bad = 0
    for path in args.files:
        base_path = os.path.join(args.baseline_dir, os.path.basename(path))
        try:
            fresh = load(path)
            base = load(base_path)
        except (OSError, ValueError) as exc:
            print("%s: %s" % (path, exc), file=sys.stderr)
            bad += 1
            continue
        if fresh.get("exp") != base.get("exp"):
            print("%s: exp %r does not match baseline exp %r"
                  % (path, fresh.get("exp"), base.get("exp")),
                  file=sys.stderr)
            bad += 1
            continue
        msgs = list(compare(fresh, base))
        for msg in msgs:
            print("%s: %s" % (path, msg), file=sys.stderr)
        if msgs:
            bad += 1
        else:
            keys = sorted(k for k in MERIT if k in fresh)
            print("%s: ok vs %s (%s)" % (path, base_path,
                                         ", ".join(keys) or "counters only"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
