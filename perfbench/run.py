#!/usr/bin/env python3
"""Build moq and the benchmark driver from source, then run one workload.

    python3 perfbench/run.py --workload feed --seed 1 --seconds 10 --trace 0

Run it from the root of a moq checkout.  The last line of standard output
is the result object {"correct", "attempted", "failed", "metrics"}; with
--trace 1 the metrics are the per-layer ones of a traced replay.
--holdout-seed S also runs the workload's checks on a second seed and
folds them into "correct".  See perfbench/README.md for the workloads.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("feed", "watch", "mixed", "scan")
WORK = ".perfbench_work"
DRIVER = "_build/default/perfbench/moqbench.exe"
MOQ = "_build/default/bin/moq.exe"


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_driver(workload, seed, seconds, trace, timeout):
    """Run the driver in its own process group, so that a timeout also
    stops the server it started.  Returns (exit code, stdout lines)."""
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--moq", MOQ, "--work", WORK]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("%s timed out after %d s" % (workload, timeout))
        return 1, []
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--holdout-seed", type=int)
    args = ap.parse_args()
    if args.seconds < 1:
        log("--seconds must be at least 1")
        return 2

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile("bin/moq.ml")):
        log("run this from the root of a moq checkout (no moq sources here)")
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/moq.exe", "./perfbench/moqbench.exe"],
        stdout=sys.stderr, env=env, timeout=840)
    if build.returncode != 0:
        log("build failed")
        return 1
    os.makedirs(WORK, exist_ok=True)

    code, lines = run_driver(args.workload, args.seed, args.seconds, args.trace, 170)
    if code != 0 or not lines:
        for line in lines:
            print(line, file=sys.stderr)
        log("%s run failed (exit %d)" % (args.workload, code))
        return 1
    result = json.loads(lines[-1])

    if args.holdout_seed is not None:
        hcode, hlines = run_driver(args.workload, args.holdout_seed, args.seconds, 0, 170)
        for line in hlines[:-1]:
            print("holdout: " + line)
        held = hcode == 0 and hlines and json.loads(hlines[-1])["correct"]
        print("holdout seed %d: %s" % (args.holdout_seed, "correct" if held else "FAILED"))
        result["correct"] = bool(result["correct"] and held)

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
