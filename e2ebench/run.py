#!/usr/bin/env python3
"""Builds bench_e2e from the enclosing checkout and runs one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a paintplace checkout. The build goes to
$CARGO_TARGET_DIR/e2e (default .bench_build/e2e) and its output to stderr.
The workload's own output is passed through; the last line printed is one
JSON object with `correct`, `attempted`, `failed` and `metrics`, where the
metrics are BENCHMARK.json's end_to_end ones (--trace 0) or its per_layer
ones (--trace 1). Exits non-zero, without that line, when the sources are
missing, the build fails, a metric is missing or the workload fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        fail("no paintplace sources next to e2ebench/ (expected CMakeLists.txt and src/)")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2e")
    steps = [["cmake", "--build", build_dir, "--target", "bench_e2e", "-j", "4"]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "bench_e2e"), build_dir


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary, build_dir = build()
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)

    printed = {}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] == args.workload:
            printed[fields[1]] = (float(fields[2]), fields[3])
    if proc.returncode != 0 or printed.get("correct", (0.0,))[0] != 1.0:
        fail("workload %s failed (exit status %d)" % (args.workload, proc.returncode))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in printed:
            fail("workload %s printed no %s" % (args.workload, m["name"]))
        value, unit = printed[m["name"]]
        if unit != m["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s" % (m["name"], unit, m["unit"]))
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": True, "attempted": int(printed["attempted"][0]),
                      "failed": int(printed["failed"][0]), "metrics": metrics}))


if __name__ == "__main__":
    main()
