#!/usr/bin/env python3
"""Builds bench_pipeline from source and runs one workload of it.

Run from the repository root:

    python3 bench/pipeline/run.py --workload moving_inline --seed 1 \
        --seconds 20 --trace 0

The program is built with CMake into .bench_build/pipeline (the first run
builds the library under test; later runs only re-check it). Build output
goes to stderr when a build step fails. The benchmark's output goes to
stdout, and its last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metric names and units are checked against BENCHMARK.json: --trace 0
must report exactly its end_to_end metrics and --trace 1 exactly its
per_layer metrics, or the run fails. With --trace 1 the last traced rep's
spans are written to .bench_build/pipeline/trace-<workload>-<seed>.json
unless --trace-out names another file.

Exit status: 0 when the run completed and its outputs were correct, 1 when
a correctness check failed, 2 when the program cannot be built or run (for
example outside a checkout of the repository), 3 when the reported metrics
do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "pipeline"
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as err:
        fail(2, f"cannot read {path}: {err}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(2, f"{ROOT} is not a checkout of the repository (no CMakeLists.txt/src)")
    if shutil.which("cmake") is None:
        fail(2, "cmake not found")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_pipeline",
                  "-j", "3"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(2, f"build step failed: {' '.join(cmd)}")
    return BUILD / "bench_pipeline"


def check_metrics(result, expected):
    """Exactly the expected names, each with its declared unit."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing or extra:
        return f"metrics missing {missing}, not in BENCHMARK.json {extra}"
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            return f"{name} has unit {got[name].get('unit')!r}, expected {unit!r}"
        if not isinstance(got[name].get("value"), (int, float)):
            return f"{name} has no numeric value"
    return None


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", help="spans JSON path (with --trace 1)")
    ap.add_argument("--self-test", action="store_true",
                    help="check the percentile and self-time helpers only")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if args.self_test:
        sys.exit(subprocess.run([str(binary), "--self-test"]).returncode)

    work = BUILD / f"work-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work)]
    if args.trace:
        trace_out = args.trace_out or BUILD / f"trace-{args.workload}-{args.seed}.json"
        cmd += ["--trace-out", str(trace_out)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(2, f"bench_pipeline did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail(2, f"bench_pipeline exited {done.returncode} without a result line")
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    problem = check_metrics(result, expected)
    if problem is not None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(3, f"metrics do not match BENCHMARK.json: {problem}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    if done.returncode != 0 or not result["correct"]:
        sys.exit(1)


if __name__ == "__main__":
    main()
