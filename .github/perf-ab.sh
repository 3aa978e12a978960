#!/usr/bin/env bash
# A/B performance gate: the base commit's perfbench against this tree's.
#
#   .github/perf-ab.sh BASE_TREE HEAD_TREE OUT_DIR
#
# Builds perfbench in both trees, then runs perfbench/steadiness.py in each
# tree in the order A B B A (A = base, B = head), two runs per block. The
# two blocks of a pair use the same seeds, so both sides run seeds 1-4 on
# the same host, and a slow drift of the host's speed falls on both alike.
# Each side's values are pooled into medians, and `steadiness.py --compare`
# fails when any end-to-end metric on any workload is worse than base by
# more than its BENCHMARK.json bound. steadiness.py itself fails on any run
# whose output checks fail.
set -euo pipefail

base=$(realpath "$1")
head=$(realpath "$2")
mkdir -p "$3"
out=$(realpath "$3")
# Relative, so each tree builds into its own .bench_build.
export CARGO_TARGET_DIR=.bench_build

for tree in "$base" "$head"; do
  (cd "$tree" && cargo build --release --offline --manifest-path perfbench/Cargo.toml --bin perfbench)
done

block() { # SIDE TREE SEED_BASE
  echo "== $1, seeds $3-$(($3 + 1))"
  (cd "$2" && python3 perfbench/steadiness.py --runs 2 --seed-base "$3" --out "$out/$1-$3.json")
}
block base "$base" 1
block head "$head" 1
block head "$head" 3
block base "$base" 3

python3 - "$out" <<'EOF'
import json, statistics, sys

out = sys.argv[1]
for side in ("base", "head"):
    blocks = [json.load(open(f"{out}/{side}-{seed}.json")) for seed in (1, 3)]
    workloads = {
        w: {"metrics": {m: {"median": statistics.median(
                v for b in blocks for v in b["workloads"][w]["metrics"][m]["values"])}
            for m in data["metrics"]}}
        for w, data in blocks[0]["workloads"].items()
    }
    with open(f"{out}/{side}.json", "w") as f:
        json.dump({"workloads": workloads}, f, indent=1)
EOF

cd "$head"
python3 perfbench/steadiness.py --compare "$out/base.json" "$out/head.json"
