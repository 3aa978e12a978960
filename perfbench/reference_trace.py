#!/usr/bin/env python3
"""Writes the traced per-layer table of every workload as Markdown.

Runs the command of BENCHMARK.json with ``--trace 1`` once per workload
and lays the per-layer metrics out with one column per workload. Run from
the repository root:

    python3 perfbench/reference_trace.py --seed 1 > perfbench/results/reference_trace.md
"""

import argparse
import json
import os
import platform
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    opts = parser.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    results = {}
    for w in workloads:
        args = bench["command"] + ["--workload", w, "--seed", str(opts.seed),
                                   "--seconds", str(seconds), "--trace", "1"]
        proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"{w}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        results[w] = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"traced {w}", file=sys.stderr, flush=True)

    print("# Reference trace\n")
    print(f"Traced per-layer metrics (`--trace 1`), seed {opts.seed}, {seconds} s per "
          f"workload, on {os.cpu_count()} vCPUs ({platform.machine()}). Every workload "
          "prints every metric; 0 marks a layer the workload does not exercise. "
          "Regenerate with `python3 perfbench/reference_trace.py`.\n")
    print("| workload | correct | attempted | failed |")
    print("|---|---|---|---|")
    for w in workloads:
        r = results[w]
        print(f"| {w} | {r['correct']} | {r['attempted']} | {r['failed']} |")
    print()
    print("| metric | unit | " + " | ".join(workloads) + " |")
    print("|---|---|" + "---|" * len(workloads))
    for m in bench["per_layer"]:
        cells = [f"{results[w]['metrics'][m['name']]['value']:.6g}" for w in workloads]
        print(f"| `{m['name']}` | {m['unit']} | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
