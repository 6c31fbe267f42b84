#!/usr/bin/env python3
"""Steadiness check for the repo benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--seed0 1]
                                [--seconds S] [--trace 0|1]

Runs each workload --runs times through run.py, seed seed0, seed0+1, ...,
then prints, per metric, the median, the quartiles and the distance
between the quartiles as a share of the median (the spread), next to the
metric's bound from BENCHMARK.json. A spread under a third of the bound is
"steady". It also re-runs the first seed and asserts that every
simulated-time and count metric repeats bit for bit. Exits non-zero when a
run fails, a sim metric differs between two runs of one seed, or a spread
(other than setup_s) exceeds its bound.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LINE = re.compile(r"^  (\S+)\s+(\S+) (\S+)\s+\[(host|sim|count)\]$")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-3000:])
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    # Every metric the run printed, with its clock, as exact text.
    printed = {}
    for line in lines[:-1]:
        m = LINE.match(line)
        if m:
            printed[m.group(1)] = (m.group(2), m.group(4))
    return result, printed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in
              bench["per_layer" if args.trace else "end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        first = None
        for i in range(args.runs):
            out = run(workload, args.seed0 + i, args.seconds, args.trace)
            if out is None:
                print("%s seed %d: run FAILED" % (workload, args.seed0 + i))
                ok = False
                continue
            result, printed = out
            if first is None:
                first = printed
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, args.seed0 + i, " ".join(
                "%s=%.6g" % (n, m["value"])
                for n, m in result["metrics"].items())), flush=True)

        again = run(workload, args.seed0, args.seconds, args.trace)
        if first is not None and again is not None:
            diff = [n for n, (v, clock) in first.items()
                    if clock != "host" and again[1].get(n, (None,))[0] != v]
            print("%s: sim/count metrics of seed %d repeat exactly: %s" %
                  (workload, args.seed0, "yes" if not diff else
                   "NO (" + ", ".join(diff) + ")"))
            ok = ok and not diff

        print("%-28s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, v in values.items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = ("steady" if spread < bound / 3 else
                           "within" if spread <= bound else "TOO NOISY")
                if spread > bound and name != "setup_s":
                    ok = False
            print("%-28s %14.6g %14.6g %14.6g %8.4f %6s %s" %
                  (name, med, q1, q3, spread,
                   "" if bound is None else bound, verdict))
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
