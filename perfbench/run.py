#!/usr/bin/env python3
"""Build and run the bgpsim benchmark.

Run from the root of a bgpsim checkout:

    python3 perfbench/run.py --workload paper-figures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first form builds perfbench/perfbench.exe with dune, runs one
workload in a fresh process and passes its report through; the last
line of standard output is the JSON result.  The second checks the
benchmark's own helpers, that two invocations with the same seed agree
on their outcome digest, and that the metrics printed are the ones
BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
EXPECTED = os.path.join("perfbench", "expected.txt")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    # the dune cache lives outside the checkout; keep every write inside
    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
        env=env,
    )
    return code == 0


def workload(name, seed, seconds, trace):
    cmd = [
        EXE, "--workload", name, "--seed", str(seed), "--seconds",
        str(seconds), "--trace", str(trace), "--expected", EXPECTED,
    ]
    code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"{name} exited with code {code}")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise RuntimeError(f"{name}: malformed result line")
    return lines, result


def self_test():
    code, _ = run([EXE, "--self-test"], RUN_TIMEOUT_S)
    ok = code == 0
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    digests = []
    for trace in (0, 1):
        lines, result = workload("churn-service", 7, 1, trace)
        declared = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        if printed != declared:
            ok = False
            print(f"self-test FAILED: trace {trace} metrics differ from "
                  "BENCHMARK.json", file=sys.stderr)
        if not result["correct"]:
            ok = False
            print(f"self-test FAILED: trace {trace} run not correct",
                  file=sys.stderr)
        digests += [l for l in lines if l.startswith("outcome-digest ")]
    if len(digests) != 2 or digests[0] != digests[1]:
        ok = False
        print("self-test FAILED: same seed, different outcome digests",
              file=sys.stderr)
    print("run.py self-test " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run this from the root of a bgpsim checkout")
    try:
        if not build():
            return fail("build failed")
        if args.self_test:
            return self_test()
        if not args.workload:
            return fail("--workload is required")
        lines, _ = workload(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, ValueError, RuntimeError,
            subprocess.TimeoutExpired) as e:
        return fail(str(e))
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
