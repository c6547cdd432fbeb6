#!/usr/bin/env python3
"""Validate BENCH_<id>.json files emitted by bench/main.exe.

Every record is (see EXPERIMENTS.md)

    { "exp": str, "n": int, "seed": int, "wall_s": float,
      "counters": { "moq_<metric>": float, ... } }

plus its experiment's extras.  EXTRAS declares each extra once: the
experiment(s) that emit it, its JSON type and range, the value it must
equal, its CI gate, and its direction of merit (bench_compare.py reads
that).  A gate applies to its owners' records only, and a gated key
missing from an owner's record fails.  The "exp" id must come from the
experiment registry in bench/main.ml; duplicate keys anywhere in the
document are rejected.

Usage: validate_bench.py FILE...
Exits non-zero with one `file: message` line per problem.
"""
import argparse
import collections
import json
import sys

# owners: space-separated exp ids; kind: JSON type (None = any); range: a
# RANGES key; required: the one accepted value; gate: ("min"|"max", X);
# better: "higher"|"lower" for bench_compare.py
Extra = collections.namedtuple(
    "Extra", "owners kind range required gate better",
    defaults=(None, None, None, None))

EXTRAS = {
    # a3: filtered vs exact backend
    "backend": Extra("a3 s3", "str"),
    "filter_hit_rate": Extra("a3", "num", "in [0, 1]", gate=("min", 0.9)),
    # misses / the Filtered run's E.comparisons at N = 1000: 0.8473 at
    # seed 1000 (56,388 / 66,549, deterministic counts), gated 5% above.
    # Unlike the hit rate it does not fall when redundant hits go.
    "filter_misses_per_comparison": Extra("a3", "num", ">= 0",
                                          gate=("max", 0.89),
                                          better="lower"),
    # crossing searches / events of the Filtered run at N = 1000: 3.3465
    # at seed 1000 (a deterministic count; 7.766 before crossing
    # certificates), gated 5% above.
    "searches_per_event": Extra("a3", "num", ">= 0", gate=("max", 3.51),
                                better="lower"),
    "speedup_vs_exact": Extra("a3", "num", "> 0", better="higher"),
    # s1: moq serve under load, kill + recover
    "connections": Extra("s1", "int", "> 0"),
    "rps": Extra("s1", "num", ">= 0", better="higher"),
    "p50_ms": Extra("s1", "num", ">= 0", better="lower"),
    "p99_ms": Extra("s1", "num", ">= 0", better="lower"),
    "pushed_events": Extra("s1", "int", ">= 0"),
    "dropped": Extra("s1", "int", ">= 0"),
    "recover_identical": Extra("s1", "bool", required=True),
    # s2: replication under chaos
    "followers": Extra("s2", "int", ">= 0"),
    "agg_query_rps": Extra("s2", "num", ">= 0", better="higher"),
    "primary_p99_ms": Extra("s2", "num", ">= 0", better="lower"),
    "divergence_detected": Extra("s2", "bool", required=False),
    # o1: tracing overhead, e2e delivery, replication lag
    "trace_overhead_pct": Extra("o1", "num", gate=("max", 5)),
    "rps_trace_off": Extra("o1", "num", ">= 0", better="higher"),
    "rps_trace_on": Extra("o1", "num", ">= 0", better="higher"),
    "e2e_p50_ms": Extra("o1", "num", ">= 0", better="lower"),
    "e2e_p99_ms": Extra("o1", "num", "> 0", better="lower"),
    "e2e_samples": Extra("o1", "int", "> 0"),
    "repl_lag_p99": Extra("o1", "num", ">= 0"),
    "final_lag_updates": Extra("o1", None, required=0),  # follower caught up
    # o2: explain/flight-recorder overhead, hot-object coverage
    "explain_overhead_pct": Extra("o2", "num", gate=("max", 5)),
    "rps_obs_off": Extra("o2", "num", ">= 0", better="higher"),
    "rps_obs_on": Extra("o2", "num", ">= 0", better="higher"),
    "hot_coverage_pct": Extra("o2", "num", "in [0, 100]", gate=("min", 80),
                              better="higher"),
    "hot_top5_comparisons": Extra("o2", "int", ">= 0"),
    "hot_total_comparisons": Extra("o2", "int", "> 0"),
    "hot_attributed_objects": Extra("o2", "int", "> 0"),
    "slowq_captured": Extra("o2", "int", "> 0"),  # the capture path fired
    "flight_recorded": Extra("o2", "int", "> 0"),  # the recorder fired
    # s3: sharded index-pruned sweeps (Lemma 9 / Theorem 10 locality)
    "per_event_ns_by_n": Extra("s3", "table"),
    "per_event_growth": Extra("s3", "num", "> 0", gate=("max", 2.0),
                              better="lower"),
    "index_build_ms_by_n": Extra("s3", "table"),
    "index_build_words_per_object_by_n": Extra("s3", "table"),
    "prune_rate": Extra("s3", "num", "in [0, 1]", gate=("min", 0.9),
                        better="higher"),
    "identical_to_exact": Extra("s3", "bool", required=True),
    # w1: continuous POI aggregation and alibi
    "agg_speedup_vs_rescan": Extra("w1", "num", "> 0", gate=("min", 5),
                                   better="higher"),
    "agg_identical": Extra("w1", "bool", required=True),
    "agg_rows": Extra("w1", "int", "> 0"),
    "agg_pois": Extra("w1", "int", "> 0"),
    "agg_windows": Extra("w1", "int", "> 0"),
    "watch_admitted": Extra("w1", "int", ">= 0"),
    "watch_pruned": Extra("w1", "int", ">= 0"),
    "ingest_updates": Extra("w1", "int", "> 0"),
    "alibi_cases": Extra("w1", "int", "> 0"),
    "alibi_meets": Extra("w1", "int", ">= 0"),
    "alibi_identical": Extra("w1", "bool", required=True),
}
# (a, b): a <= b whenever both are numbers
ORDERED = [("p50_ms", "p99_ms"), ("e2e_p50_ms", "e2e_p99_ms"),
           ("hot_top5_comparisons", "hot_total_comparisons"),
           ("alibi_meets", "alibi_cases")]

METRIC_OK = set("abcdefghijklmnopqrstuvwxyz0123456789_")
# the experiment registry in bench/main.ml — an id not listed here is a typo
# or an experiment whose extras this validator does not know how to check
KNOWN_EXPS = {"f1", "f2", "f3", "p1", "t2", "t4", "t5a", "t5b", "t10",
              "b1", "b2", "b3", "a1", "a3", "r1", "s1", "s2", "s3",
              "o1", "o2", "w1"}
REQUIRED = {"exp", "n", "seed", "wall_s", "counters"}


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


KINDS = {
    "str": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "num": ("a number", is_number),
    "int": ("an integer",
            lambda v: isinstance(v, int) and not isinstance(v, bool)),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "table": ("a non-empty object", lambda v: isinstance(v, dict) and bool(v)),
}
RANGES = {
    ">= 0": lambda v: not v < 0,
    "> 0": lambda v: not v <= 0,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in [0, 100]": lambda v: 0 <= v <= 100,
}


def reject_duplicate_keys(pairs):
    """object_pairs_hook: a duplicate key means the emitter wrote the same
    extras field twice — the last occurrence would silently win."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError("duplicate key %r" % key)
        seen.add(key)
    return dict(pairs)


def extra_problems(key, extra, v, owned):
    if extra.kind is not None and not KINDS[extra.kind][1](v):
        yield "'%s' must be %s" % (key, KINDS[extra.kind][0])
        return
    if extra.range is not None and not RANGES[extra.range](v):
        yield "'%s' must be %s" % (key, extra.range)
    if extra.required is not None and v != extra.required:
        yield "'%s' must be %s" % (key, json.dumps(extra.required))
    if extra.kind == "table":
        for size, ns in v.items():
            if not size.isdigit() or int(size) <= 0:
                yield "'%s' key %r is not a positive integer N" % (key, size)
            if not is_number(ns) or ns <= 0:
                yield "'%s'[%r] must be a positive number" % (key, size)
    if owned and extra.gate is not None:
        bound, x = extra.gate
        if (v < x) if bound == "min" else (v > x):
            yield "%s %g %s allowed %s %g" % (
                key, v, "below" if bound == "min" else "above",
                "minimum" if bound == "min" else "maximum", x)


def problems(path):
    try:
        with open(path) as fh:
            doc = json.load(fh, object_pairs_hook=reject_duplicate_keys)
    except (OSError, ValueError) as exc:
        yield str(exc)
        return
    if not isinstance(doc, dict):
        yield "top level is not an object"
        return
    extra = sorted(set(doc) - REQUIRED - set(EXTRAS))
    if extra:
        yield "unexpected keys: %s" % ", ".join(extra)
    exp = doc.get("exp")
    if not isinstance(exp, str) or not exp:
        yield "'exp' must be a non-empty string"
    elif exp not in KNOWN_EXPS:
        yield "'exp' %r is not a known experiment id (%s)" % (
            exp, ", ".join(sorted(KNOWN_EXPS)))
    for key in ("n", "seed"):
        if not isinstance(doc.get(key), int) or isinstance(doc.get(key), bool):
            yield "'%s' must be an integer" % key
    wall = doc.get("wall_s")
    if not is_number(wall) or wall < 0:
        yield "'wall_s' must be a non-negative number"
    for key, row in EXTRAS.items():
        owned = isinstance(exp, str) and exp in row.owners.split()
        if key in doc:
            yield from extra_problems(key, row, doc[key], owned)
        elif owned and row.gate is not None:
            yield "'%s' missing — %s records are gated on it" % (key, exp)
    for lo, hi in ORDERED:
        if (is_number(doc.get(lo)) and is_number(doc.get(hi))
                and doc[lo] > doc[hi]):
            yield "'%s' must be <= '%s'" % (lo, hi)
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        yield "'counters' must be an object"
        return
    for name, value in counters.items():
        if not name.startswith("moq_") or set(name) - METRIC_OK:
            yield "counter %r: not a moq_* snake_case metric name" % name
        if value is not None and not is_number(value):
            yield "counter %r: value %r is not numeric" % (name, value)


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)
    bad = 0
    for path in args.files:
        found = False
        for msg in problems(path):
            print("%s: %s" % (path, msg), file=sys.stderr)
            found = True
        if found:
            bad += 1
        else:
            with open(path) as fh:
                doc = json.load(fh)
            extras = "".join(
                " %s=%s" % (k, doc[k]) for k in sorted(set(EXTRAS) & set(doc)))
            print(
                "%s: ok (exp=%s n=%d seed=%d wall_s=%.3f, %d counters%s)"
                % (path, doc["exp"], doc["n"], doc["seed"], doc["wall_s"],
                   len(doc["counters"]), extras)
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
