#!/usr/bin/env python3
"""Repeatability check for the pipeline benchmark (standard library only).

A result set is a JSON-lines file: one line per run of the benchmark
command, {"workload": ..., "seed": ..., "trace": 0|1, "result": {...}},
where "result" is the command's last stdout line. Make one with

    python3 bench/pipeline/compare.py collect --out a.jsonl --runs 10

which runs every workload once per seed (seeds 1..10 by default), then
compare two sets made from the same code, or from a parent and a change:

    python3 bench/pipeline/compare.py compare a.jsonl b.jsonl

For every (metric, workload) pair it prints each set's median and
quartiles (statistics.quantiles, n=4), the spread (quartile distance over
the median) and how far the second median moved in the metric's worse
direction, both as shares of the first median. With the bounds from
BENCHMARK.json each end-to-end pair is marked:

    within      both spreads and the worsening are within the bound
    unresolved  a spread is wider than the bound, so a change of that size
                cannot be told from noise (not applied to setup_s, whose
                spread is a few filesystem calls' jitter)
    OUT         the second set is worse by more than the bound

Per-layer metrics carry no bound and are listed unmarked. The exit status
is 0 only when every end-to-end pair is within its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(args, spec):
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    with open(args.out, "a") as out:
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for workload in workloads:
                cmd = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(args.trace)]
                done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True)
                lines = done.stdout.strip().split("\n")
                try:
                    result = json.loads(lines[-1])
                except ValueError:
                    result = None
                if done.returncode != 0 or result is None or not result["correct"]:
                    ok = False
                    print(f"{workload} seed {seed}: FAILED (exit {done.returncode})",
                          file=sys.stderr)
                    if result is None:
                        continue
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace, "result": result}) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: done", file=sys.stderr)
    return 0 if ok else 1


def read_set(path):
    """{(metric, workload): [values]} plus the metric units."""
    values, units = {}, {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        for name, m in row["result"]["metrics"].items():
            values.setdefault((name, row["workload"]), []).append(m["value"])
            units[name] = m["unit"]
    return values, units


def summary(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return q1, statistics.median(values), q3


def share(x, base):
    return x / abs(base) if base else float("inf") if x else 0.0


def compare(args, spec):
    a, units = read_set(args.a)
    b, _ = read_set(args.b)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    order = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    workloads = [w["name"] for w in spec["workloads"]]
    keys = sorted(set(a) & set(b),
                  key=lambda k: (order.index(k[0]) if k[0] in order else len(order),
                                 workloads.index(k[1]) if k[1] in workloads else 0))
    header = (f"{'metric':36} {'workload':17} {'n':>5} {'median A':>12} {'[q1, q3] A':>25} "
              f"{'median B':>12} {'[q1, q3] B':>25} {'spread':>7} {'worse':>7} "
              f"{'bound':>6}  verdict")
    print(header)
    print("-" * len(header))
    all_within = True
    for name, workload in keys:
        va, vb = a[(name, workload)], b[(name, workload)]
        qa1, ma, qa3 = summary(va)
        qb1, mb, qb3 = summary(vb)
        spread = max(share(qa3 - qa1, ma), share(qb3 - qb1, mb))
        delta = share(mb - ma, ma)
        worse = delta if better.get(name) == "lower" else -delta
        if name in e2e:
            bound = e2e[name]["bound"]
            # Set-up time is a few filesystem calls and its spread is not
            # held to the bound; only its median is.
            if spread > bound and name != "setup_s":
                verdict = "unresolved"
            elif worse > bound:
                verdict = "OUT"
            else:
                verdict = "within"
            all_within &= verdict == "within"
            bound_text = f"{bound:6.3f}"
        else:
            verdict, bound_text = "-", "     -"
        print(f"{name:36} {workload:17} {len(va):>2}/{len(vb):<2} {ma:12.6g} "
              f"[{qa1:11.5g}, {qa3:11.5g}] {mb:12.6g} [{qb1:11.5g}, {qb3:11.5g}] "
              f"{spread:7.4f} {worse:7.4f} {bound_text}  {verdict}")
    print(f"\n{'every end-to-end pair within its bound' if all_within else 'NOT all end-to-end pairs within their bounds'}")
    return 0 if all_within else 1


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark command into a result set")
    c.add_argument("--out", required=True, help="JSON-lines file (appended to)")
    c.add_argument("--runs", type=int, default=10, help="seeds per workload")
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    c.add_argument("--seconds", type=float, help="default: run_seconds")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("compare", help="compare two result sets")
    p.add_argument("a")
    p.add_argument("b")
    args = ap.parse_args()
    sys.exit(collect(args, spec) if args.cmd == "collect" else compare(args, spec))


if __name__ == "__main__":
    main()
