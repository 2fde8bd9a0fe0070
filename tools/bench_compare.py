#!/usr/bin/env python3
"""Bench-regression observatory: diff fresh BENCH_*.json reports against the
committed baselines in bench/baselines/ and fail on regression.

Every baselined bench harness (bench_gemm, bench_micro, bench_speedup and
the figure harnesses) writes a BENCH_<name>.json with a flat list of
samples (see bench/bench_json.h). This tool pairs fresh samples with their
baseline counterparts and checks every *directional* metric — a numeric
field whose name says which way is better (opt_gflop_s, real_time_ms,
speedup, ns_per_disabled_span, ...) — against a multiplicative tolerance
band.
Fields with no obvious direction (counts, sizes, seeds) are ignored.

Matching is structural: samples pair up by the report name, the sample's
string/bool fields (section, backend, design, ...), and the ordinal among
samples sharing those fields. Bench harnesses emit samples in a
deterministic order, so this survives int parameters changing names.

Exit status: 0 when every paired metric is inside the band, 1 on any
regression or a baseline report with no fresh counterpart.

Usage:
  bench_compare.py --baseline bench/baselines --fresh . [--tolerance 0.5]
  bench_compare.py --self-test
"""

import argparse
import glob
import json
import os
import sys

# Direction heuristics, keyed on metric-name shape. First match wins.
HIGHER_BETTER_SUFFIXES = ("_per_s", "_per_sec", "_gflop_s", "_gflops")
HIGHER_BETTER_EXACT = {
    "gflops", "speedup", "throughput", "items_per_s", "acc1", "acc2",
    "top10", "rank_corr", "mean_speedup", "threaded_speedup",
    "single_thread_speedup",
}
HIGHER_BETTER_SUBSTR = ("speedup", "accuracy")
LOWER_BETTER_SUFFIXES = ("_ms", "_seconds", "_ns", "_noise")
LOWER_BETTER_PREFIXES = ("ns_per_", "ms_per_", "us_per_")
LOWER_BETTER_EXACT = {"overhead_fraction"}


def metric_direction(key):
    """Return +1 (higher is better), -1 (lower is better) or 0 (ignore)."""
    if key in HIGHER_BETTER_EXACT:
        return 1
    if key in LOWER_BETTER_EXACT:
        return -1
    if key.endswith(HIGHER_BETTER_SUFFIXES):
        return 1
    if key.startswith(LOWER_BETTER_PREFIXES):
        return -1
    if key.endswith(LOWER_BETTER_SUFFIXES):
        return -1
    if any(s in key for s in HIGHER_BETTER_SUBSTR):
        return 1
    return 0


def sample_identity(sample):
    """Stable identity for pairing: the sample's string/bool fields."""
    return tuple(sorted(
        (k, v) for k, v in sample.items() if isinstance(v, (str, bool))))


def identity_label(identity):
    parts = [str(v) for _, v in identity if not isinstance(v, bool)]
    return "/".join(parts) if parts else "-"


def index_samples(report):
    """Map (identity, ordinal) -> sample for one report."""
    indexed = {}
    counts = {}
    for sample in report.get("samples", []):
        ident = sample_identity(sample)
        ordinal = counts.get(ident, 0)
        counts[ident] = ordinal + 1
        indexed[(ident, ordinal)] = sample
    return indexed


def load_reports(directory):
    reports = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"warning: skipping unreadable {path}: {err}")
            continue
        name = data.get("bench") or os.path.basename(path)
        reports[name] = data
    return reports


def compare_reports(baseline, fresh, tolerance):
    """Compare two report dicts. Returns (rows, regressions, warnings)."""
    factor = 1.0 / (1.0 - tolerance)
    rows, regressions, warnings = [], [], []
    fresh_index = index_samples(fresh)
    for key, base_sample in index_samples(baseline).items():
        ident, ordinal = key
        fresh_sample = fresh_index.get(key)
        label = identity_label(ident)
        if ordinal:
            label += f"#{ordinal}"
        if fresh_sample is None:
            warnings.append(f"sample '{label}' missing from fresh report")
            continue
        for metric, base_value in base_sample.items():
            direction = metric_direction(metric)
            if direction == 0 or isinstance(base_value, bool):
                continue
            if not isinstance(base_value, (int, float)):
                continue
            new_value = fresh_sample.get(metric)
            if not isinstance(new_value, (int, float)) or isinstance(new_value, bool):
                warnings.append(f"metric '{label}.{metric}' missing from fresh report")
                continue
            if base_value == 0:
                continue  # no meaningful ratio
            ratio = new_value / base_value
            if direction > 0:
                regressed = new_value < base_value / factor
            else:
                regressed = new_value > base_value * factor
            rows.append((label, metric, base_value, new_value, ratio,
                         "REGRESSED" if regressed else "ok"))
            if regressed:
                regressions.append(f"{label}.{metric}: {base_value:g} -> {new_value:g}")
    return rows, regressions, warnings


def run_compare(baseline_dir, fresh_dir, tolerance):
    baselines = load_reports(baseline_dir)
    fresh = load_reports(fresh_dir)
    if not baselines:
        print(f"error: no BENCH_*.json baselines under {baseline_dir}")
        return 1
    failed = False
    for name, base_report in sorted(baselines.items()):
        fresh_report = fresh.get(name)
        print(f"== {name} ==")
        if fresh_report is None:
            print(f"  REGRESSED: no fresh BENCH_{name}.json in {fresh_dir}")
            failed = True
            continue
        rows, regressions, warnings = compare_reports(
            base_report, fresh_report, tolerance)
        for label, metric, base, new, ratio, status in rows:
            print(f"  {status:>9}  {label:<28} {metric:<24} "
                  f"{base:>12.4g} -> {new:>12.4g}  ({ratio:5.2f}x)")
        for warning in warnings:
            print(f"   warning:  {warning}")
        if not rows:
            print("   (no directional metrics in common)")
        if regressions:
            failed = True
    allowed = 1.0 / (1.0 - tolerance)
    print(f"\ntolerance {tolerance:.2f} (allowed worsening {allowed:.1f}x): "
          + ("REGRESSIONS FOUND" if failed else "all metrics within band"))
    return 1 if failed else 0


def self_test():
    """Verify the comparator flags an injected regression and passes noise."""
    base = {
        "bench": "selftest",
        "samples": [
            {"section": "serve", "batch": 8, "req_per_s": 1000.0, "p99_ms": 10.0},
            {"section": "trace", "ns_per_disabled_span": 16.0, "full_bytes": 150000},
        ],
    }
    within = {
        "bench": "selftest",
        "samples": [
            {"section": "serve", "batch": 8, "req_per_s": 900.0, "p99_ms": 11.5},
            {"section": "trace", "ns_per_disabled_span": 18.0, "full_bytes": 170000},
        ],
    }
    regressed = {
        "bench": "selftest",
        "samples": [
            {"section": "serve", "batch": 8, "req_per_s": 1000.0, "p99_ms": 40.0},
            {"section": "trace", "ns_per_disabled_span": 16.0, "full_bytes": 150000},
        ],
    }
    _, ok_regressions, _ = compare_reports(base, within, tolerance=0.5)
    _, bad_regressions, _ = compare_reports(base, regressed, tolerance=0.5)
    problems = []
    if ok_regressions:
        problems.append(f"within-band run flagged: {ok_regressions}")
    if not any("p99_ms" in r for r in bad_regressions):
        problems.append("injected p99 regression (10ms -> 40ms @ tol 0.5) not flagged")
    if metric_direction("req_per_s") != 1 or metric_direction("p99_ms") != -1:
        problems.append("direction heuristics broken for req_per_s/p99_ms")
    if metric_direction("full_bytes") != 0:
        problems.append("directionless field full_bytes was classified")
    if problems:
        for p in problems:
            print(f"self-test FAILED: {p}")
        return 1
    print("self-test passed: injected regression flagged, within-band run clean")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="bench/baselines",
                        help="directory of committed baseline BENCH_*.json")
    parser.add_argument("--fresh", default=".",
                        help="directory of freshly produced BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="allowed fractional worsening in [0,1); the band is "
                             "base*1/(1-t) for lower-better metrics (default 0.5 "
                             "= up to 2x worse)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in comparator check and exit")
    args = parser.parse_args()
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be in [0, 1)")
    if args.self_test:
        return self_test()
    return run_compare(args.baseline, args.fresh, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
