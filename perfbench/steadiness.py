#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs the command of BENCHMARK.json once per (round, workload), with a new
seed every round, interleaving the workloads round by round so that slow
drifts of the host's speed fall on every workload alike. For each
end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the interquartile
range as a share of the median, next to the metric's bound.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --seed-base 1 \
        --out perfbench/results/steadiness-a.json

Every run lasts ``run_seconds``. The build goes to ``.bench_build`` unless
``CARGO_TARGET_DIR`` says otherwise.

``--compare A.json B.json`` instead reports, per workload and metric, by
how much the median of set B is worse than that of set A, as a share of
A's median, against the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "within_third_of_bound": spread < bound / 3,
            "values": values}


def compare(path_a, path_b, bench):
    a, b = json.load(open(path_a)), json.load(open(path_b))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    print(f"{'workload':<18} {'metric':<18} {'median A':>14} {'median B':>14} "
          f"{'B worse by':>10} {'bound':>6}")
    for w, data in a["workloads"].items():
        for m, sa in data["metrics"].items():
            ma, mb = sa["median"], b["workloads"][w]["metrics"][m]["median"]
            change = (mb - ma) / ma if ma else 0.0
            worse = change if better[m] == "lower" else -change
            within = worse <= bounds[m]
            ok &= within
            print(f"{w:<18} {m:<18} {ma:>14.6g} {mb:>14.6g} {worse:>10.4f} "
                  f"{bounds[m]:>6}{'' if within else '  <-- beyond bound'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out", default="")
    opts = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    if opts.compare:
        sys.exit(0 if compare(*opts.compare, bench) else 1)
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    samples = {w: {m: [] for m in bounds} for w in workloads}
    walls = {w: [] for w in workloads}
    failures = []
    for r in range(opts.runs):
        seed = opts.seed_base + r
        for w in workloads:
            result, wall = run_once(bench["command"], w, seed, seconds, 0)
            walls[w].append(round(wall, 2))
            if not result["correct"]:
                failures.append((w, seed, result["failed"], result["attempted"]))
            for m in bounds:
                samples[w][m].append(result["metrics"][m]["value"])
            print(f"run {r + 1}/{opts.runs} {w} seed {seed}: {wall:.1f} s "
                  + " ".join(f"{m}={result['metrics'][m]['value']:.6g}" for m in bounds),
                  flush=True)

    report = {
        "runs": opts.runs,
        "seeds": [opts.seed_base + r for r in range(opts.runs)],
        "run_seconds": seconds,
        "failures": failures,
        "workloads": {
            w: {"wall_s": walls[w],
                "metrics": {m: summarize(samples[w][m], bounds[m]) for m in bounds}}
            for w in workloads
        },
    }
    print(f"\n{'workload':<18} {'metric':<18} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    for w in workloads:
        for m, s in report["workloads"][w]["metrics"].items():
            flag = "" if s["within_third_of_bound"] else "  <-- over a third of bound"
            print(f"{w:<18} {m:<18} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g} "
                  f"{s['spread']:>8.4f} {s['bound']:>6}{flag}")
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    if failures:
        sys.exit(f"incorrect runs: {failures}")


if __name__ == "__main__":
    main()
