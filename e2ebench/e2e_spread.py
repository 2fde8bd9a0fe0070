#!/usr/bin/env python3
"""Compares two sets of bench_e2e runs, metric by metric.

    python3 e2ebench/e2e_spread.py A1.json A2.json ... -- B1.json B2.json ... [--baseline OUT]

Every file is a BENCH_e2e.json written by bench_e2e (one workload or `all`).
For each (workload, metric) both sides print their median and quartiles
(statistics.quantiles, n=4). Metrics with a bound — BENCHMARK.json's
end_to_end ones plus those in EXTRA_BOUNDS — are compared: when the two
medians differ by more than the bound the metric "DIFFERS", and when either
side's quartile spread is wider than the bound it is "unresolved" rather than
"same". The exit status is 1 when a gated metric differs: BENCHMARK.json's
and the training quality. --baseline writes both sides' medians and
quartiles, with nproc, backend and git sha, to OUT.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Metrics outside BENCHMARK.json: (better, bound, kind, gated). A "rel" bound
# is a share of side A's median, an "abs" bound is in the metric's own unit.
# The latencies and failed_frac move on a shared host by more than these
# bounds, so they get a verdict but never set the exit status; the training
# quality repeats exactly for a seed, so it does.
EXTRA_BOUNDS = {
    "p50_ms": ("lower", 0.10, "rel", False),
    "p99_ms": ("lower", 0.15, "rel", False),
    "light_p50_ms": ("lower", 0.10, "rel", False),
    "light_tail_ms": ("lower", 0.15, "rel", False),
    "busy_p50_ms": ("lower", 0.10, "rel", False),
    "busy_tail_ms": ("lower", 0.15, "rel", False),
    "failed_frac": ("lower", 0.0, "abs", False),
    "val_l1": ("lower", 0.02, "rel", True),
    "val_pixel_acc": ("higher", 0.01, "abs", True),
}
NOT_COMPARED = {"attempted", "failed", "correct"}


def load_bounds(path):
    with open(path) as f:
        spec = json.load(f)
    bounds = dict(EXTRA_BOUNDS)
    for m in spec["end_to_end"]:
        bounds[m["name"]] = (m["better"], m["bound"], "rel", True)
    return bounds


def load_runs(paths):
    """{(workload, metric): [values]}, {(workload, metric): unit}, [meta]"""
    values, units, metas = {}, {}, []
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        metas.append(report["meta"])
        for s in report["samples"]:
            if s["metric"] in NOT_COMPARED or s["value"] is None:
                continue
            key = (s["workload"], s["metric"])
            values.setdefault(key, []).append(float(s["value"]))
            units[key] = s["unit"]
    return values, units, metas


def summary(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return statistics.median(vals), q1, q3


def spread(med, q1, q3, kind):
    if kind == "abs":
        return q3 - q1
    return (q3 - q1) / abs(med) if med else float("inf")


def main():
    argv = sys.argv[1:]
    if "--" not in argv:
        sys.exit("usage: e2e_spread.py A.json... -- B.json... [--baseline OUT]")
    split = argv.index("--")
    side_a = argv[:split]
    parser = argparse.ArgumentParser()
    parser.add_argument("side_b", nargs="+")
    parser.add_argument("--baseline")
    args = parser.parse_args(argv[split + 1:])
    if not side_a:
        sys.exit("e2e_spread.py: no runs before --")

    bounds = load_bounds(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    a_vals, units, a_meta = load_runs(side_a)
    b_vals, _, b_meta = load_runs(args.side_b)

    differ = 0
    rows = []
    print("%-14s %-28s %-8s %12s %12s %12s   %12s %12s %12s  %s" % (
        "workload", "metric", "unit", "A median", "A q1", "A q3", "B median", "B q1", "B q3",
        "verdict"))
    for key in sorted(set(a_vals) & set(b_vals)):
        workload, metric = key
        a, b = summary(a_vals[key]), summary(b_vals[key])
        verdict = "-"
        if metric in bounds:
            better, bound, kind, gated = bounds[metric]
            delta = b[0] - a[0] if kind == "abs" else (b[0] - a[0]) / abs(a[0]) if a[0] else 0.0
            worse = delta > 0 if better == "lower" else delta < 0
            if abs(delta) > bound:
                verdict = "DIFFERS (%s by %.3g, bound %g%s)" % (
                    "worse" if worse else "better", abs(delta), bound, "" if gated else ", not gated")
                differ += 1 if gated else 0
            elif max(spread(*a, kind), spread(*b, kind)) > bound:
                verdict = "unresolved (spread > bound %g)" % bound
            else:
                verdict = "same (within %g)" % bound
        print("%-14s %-28s %-8s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g  %s" % (
            workload, metric, units[key], *a, *b, verdict))
        for side, (med, q1, q3), n in (("A", a, len(a_vals[key])), ("B", b, len(b_vals[key]))):
            rows.append({"workload": workload, "metric": metric, "unit": units[key], "set": side,
                         "runs": n, "median": med, "q1": q1, "q3": q3})

    if args.baseline:
        meta = {k: a_meta[0].get(k) for k in ("nproc", "pool_workers", "backend", "git_sha",
                                              "native_kernel", "seed", "seconds")}
        meta["runs_a"], meta["runs_b"] = len(side_a), len(args.side_b)
        with open(args.baseline, "w") as f:
            f.write('{"bench": "e2e",\n "meta": %s,\n "samples": [\n' % json.dumps(meta))
            f.write(",\n".join("  " + json.dumps(row) for row in rows))
            f.write("\n ]}\n")
        print("wrote %s" % args.baseline)
    if any(m.get("git_sha") != a_meta[0].get("git_sha") for m in a_meta + b_meta):
        print("note: the runs come from more than one git sha")
    print("%d gated metric(s) differ by more than their bound" % differ)
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
