#!/usr/bin/env python3
"""Bench regression gate.

Compares BENCH_*.json metric files produced by a bench run against the
committed baselines in bench/baselines/. The system runs on two clocks:

  * Sim-time and count metrics are deterministic per seed. A baseline
    entry without a "threshold" field is one of these, and it must match
    at printed precision (6 decimals, as the benches write them) in BOTH
    directions: a 1% "improvement" fails just like a 1% regression,
    because either means the model changed and the baseline is stale.
  * Host-time metrics (wall-clock rates) vary with the machine. Their
    baseline entry carries its own "threshold" and is gated by a band.

Metric file schema (emitted by the bench binaries):

    {"bench": "fig5a",
     "metrics": [{"name": "...", "value": 1.0,
                  "unit": "ms", "direction": "lower"}, ...]}

`direction` is which way is better. For a banded (host) metric, "lower"
fails when the current value exceeds baseline * (1 + threshold) and
"higher" fails when it falls below baseline * (1 - threshold). An exact
(sim) metric fails on any change at printed precision.

When $GITHUB_STEP_SUMMARY is set, a per-metric markdown delta table is
appended to it so the verdict is readable from the Actions run page
without digging through logs.

Usage:
    python3 bench/check_regression.py --current-dir build/bench \
        [--baseline-dir bench/baselines] [--only fig5a,fig6]

    python3 bench/check_regression.py --self-test

Exit status: 0 = no regression, 1 = regression or missing data; the
failure line names every offending metric.
"""

import argparse
import json
import os
import sys
import tempfile


def load_metrics(path):
    with open(path) as f:
        doc = json.load(f)
    return {m["name"]: m for m in doc.get("metrics", [])}


def printed(value):
    """A metric value at the precision the benches print it."""
    return f"{value:.6f}"


def compare_metric(baseline, current):
    """Returns (bad, delta, threshold) for one metric.

    `delta` is signed in the worse direction: positive means worse than
    baseline, regardless of whether lower or higher is better.
    `threshold` is None for an exact (sim) metric.
    """
    bv, cv = baseline["value"], current["value"]
    direction = baseline.get("direction", "lower")
    threshold = baseline.get("threshold")
    if direction == "lower":
        delta = (cv - bv) / bv if bv else 0.0
    else:
        delta = (bv - cv) / bv if bv else 0.0
    if threshold is None:
        return printed(cv) != printed(bv), delta, None
    if direction == "lower":
        bad = cv > bv * (1 + threshold)
    else:
        bad = cv < bv * (1 - threshold)
    return bad, delta, threshold


def threshold_label(threshold):
    return "exact" if threshold is None else f"{threshold:.0%}"


def run_gate(baseline_dir, current_dir, only=None):
    """Compares every baseline file; returns (exit_code, summary_rows).

    `only` (a set of bench names, e.g. {"coordinator_scale"}) restricts
    the gate to those baselines, for CI jobs that run a subset of the
    benches.
    """
    baselines = sorted(
        f for f in os.listdir(baseline_dir)
        if f.startswith("BENCH_") and f.endswith(".json"))
    if only is not None:
        baselines = [f for f in baselines
                     if f[len("BENCH_"):-len(".json")] in only]
    if not baselines:
        print(f"no baselines found in {baseline_dir}", file=sys.stderr)
        return 1, []

    offenders = []
    rows = []  # (bench, metric, current, baseline, delta, threshold, status)
    for fname in baselines:
        base_path = os.path.join(baseline_dir, fname)
        cur_path = os.path.join(current_dir, fname)
        bench = fname[len("BENCH_"):-len(".json")]
        if not os.path.exists(cur_path):
            print(f"MISSING  {fname}: bench did not produce it")
            offenders.append(f"{bench} (file missing)")
            rows.append((bench, "(all)", None, None, None, None, "MISSING"))
            continue
        base = load_metrics(base_path)
        cur = load_metrics(cur_path)
        print(f"== {fname} ==")
        for name, bm in base.items():
            if name not in cur:
                print(f"  MISSING  {name}")
                offenders.append(name)
                rows.append((bench, name, None, bm["value"], None, None,
                             "MISSING"))
                continue
            bad, delta, thr = compare_metric(bm, cur[name])
            status = ("REGRESS" if thr is not None or delta > 0
                      else "CHANGED") if bad else "ok"
            unit = bm.get("unit", "")
            print(f"  {status:8} {name}: {printed(cur[name]['value'])} "
                  f"{unit} (baseline {printed(bm['value'])}, {delta:+.1%} "
                  f"worse-direction, {threshold_label(thr)})")
            rows.append((bench, name, cur[name]["value"], bm["value"],
                         delta, thr, status))
            if bad:
                offenders.append(name)
        extra = set(cur) - set(base)
        for name in sorted(extra):
            print(f"  NEW      {name}: {cur[name]['value']:.3f} "
                  f"(no baseline; add it to {base_path})")
            rows.append((bench, name, cur[name]["value"], None, None, None,
                         "NEW"))

    if offenders:
        print("\nregression gate: FAILED ({})".format(", ".join(offenders)))
        return 1, rows
    print("\nregression gate: passed")
    return 0, rows


def write_step_summary(rows, exit_code, path):
    verdict = "❌ FAILED" if exit_code else "✅ passed"
    with open(path, "a") as f:
        f.write(f"### Bench regression gate: {verdict}\n\n")
        f.write("| bench | metric | current | baseline | delta (worse-dir)"
                " | threshold | status |\n")
        f.write("|---|---|---:|---:|---:|---:|---|\n")
        for bench, name, cv, bv, delta, thr, status in rows:
            cv_s = printed(cv) if cv is not None else "—"
            bv_s = printed(bv) if bv is not None else "—"
            delta_s = f"{delta:+.1%}" if delta is not None else "—"
            thr_s = threshold_label(thr) if status != "NEW" else "—"
            mark = {"REGRESS": "**REGRESS**", "CHANGED": "**CHANGED**",
                    "MISSING": "**MISSING**"}.get(status, status)
            f.write(f"| {bench} | `{name}` | {cv_s} | {bv_s} | {delta_s} "
                    f"| {thr_s} | {mark} |\n")
        f.write("\n")


def self_test():
    """Exercises the gate logic end to end (invoked from ctest)."""
    def gate(base_metrics, cur_metrics, drop_current=False):
        with tempfile.TemporaryDirectory() as tmp:
            bdir = os.path.join(tmp, "base")
            cdir = os.path.join(tmp, "cur")
            os.mkdir(bdir)
            os.mkdir(cdir)
            with open(os.path.join(bdir, "BENCH_selftest.json"), "w") as f:
                json.dump({"bench": "selftest", "metrics": base_metrics}, f)
            if not drop_current:
                with open(os.path.join(cdir, "BENCH_selftest.json"),
                          "w") as f:
                    json.dump({"bench": "selftest",
                               "metrics": cur_metrics}, f)
            code, rows = run_gate(bdir, cdir)
            return code, rows

    # Sim metrics: no threshold field, so they gate exactly.
    lo = {"name": "lat", "value": 10.0, "unit": "ms", "direction": "lower"}
    hi = {"name": "rate", "value": 100.0, "unit": "B/s",
          "direction": "higher"}
    # Host metrics: banded by their own threshold.
    host_lo = dict(lo, name="host_lat", threshold=0.20)
    host_hi = dict(hi, name="host_rate", threshold=0.20)

    checks = [
        # Exact: equal at printed precision passes; any change fails, in
        # either direction (a 1% "improvement" means a stale baseline).
        ("sim equal", gate([lo], [dict(lo)])[0], 0),
        ("sim equal at 6 decimals",
         gate([lo], [dict(lo, value=10.0000001)])[0], 0),
        ("sim 1% worse", gate([lo], [dict(lo, value=10.1)])[0], 1),
        ("sim 1% better", gate([lo], [dict(lo, value=9.9)])[0], 1),
        ("sim higher 1% better", gate([hi], [dict(hi, value=101.0)])[0], 1),
        ("sim last digit", gate([lo], [dict(lo, value=10.000001)])[0], 1),
        # Banded: 20% worse on a lower-is-better host metric passes at the
        # boundary, fails just beyond it.
        ("host inside band", gate([host_lo], [dict(host_lo, value=11.0)])[0],
         0),
        ("host lower within", gate([host_lo],
                                   [dict(host_lo, value=12.0)])[0], 0),
        ("host lower beyond", gate([host_lo],
                                   [dict(host_lo, value=12.1)])[0], 1),
        # Host improvements never fail, in either direction.
        ("host lower improved", gate([host_lo],
                                     [dict(host_lo, value=1.0)])[0], 0),
        ("host higher improved", gate([host_hi],
                                      [dict(host_hi, value=500.0)])[0], 0),
        # higher-is-better fails when the value falls too far.
        ("host higher within", gate([host_hi],
                                    [dict(host_hi, value=80.0)])[0], 0),
        ("host higher beyond", gate([host_hi],
                                    [dict(host_hi, value=79.0)])[0], 1),
        # The band is the metric's own.
        ("host loose band",
         gate([dict(lo, threshold=0.50)], [dict(lo, value=14.0)])[0], 0),
        ("host tight band",
         gate([dict(lo, threshold=0.01)], [dict(lo, value=10.2)])[0], 1),
        # A metric present in the baseline but absent from the run fails;
        # a NEW metric with no baseline is informational only.
        ("metric missing", gate([lo, hi], [lo])[0], 1),
        ("new metric ok", gate([lo], [lo, dict(hi, name="extra")])[0], 0),
        # A baseline file the bench never produced fails.
        ("file missing", gate([lo], [], drop_current=True)[0], 1),
    ]
    failures = [name for name, got, want in checks if got != want]

    # The failure line must name the offending metric.
    code, rows = gate([lo], [dict(lo, value=99.0)])
    if code != 1 or not any(r[1] == "lat" and r[6] == "REGRESS"
                            for r in rows):
        failures.append("offender named")

    # The step-summary table renders every row.
    with tempfile.TemporaryDirectory() as tmp:
        summary = os.path.join(tmp, "summary.md")
        write_step_summary(rows, code, summary)
        with open(summary) as f:
            text = f.read()
        if "`lat`" not in text or "FAILED" not in text:
            failures.append("step summary rendered")

    if failures:
        print("self-test FAILED:", ", ".join(failures))
        return 1
    print("self-test passed ({} checks)".format(len(checks) + 2))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--current-dir", default=".")
    ap.add_argument("--threshold", type=float, default=None,
                    help="accepted for compatibility and ignored: sim "
                         "metrics gate exactly, and each host metric "
                         "carries its own band in its baseline entry")
    ap.add_argument("--only", default=None,
                    help="comma-separated bench names to gate "
                         "(default: every committed baseline)")
    ap.add_argument("--self-test", action="store_true",
                    help="exercise the threshold logic and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    only = set(args.only.split(",")) if args.only else None
    code, rows = run_gate(args.baseline_dir, args.current_dir, only=only)
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        write_step_summary(rows, code, summary_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
