#!/usr/bin/env bash
# Records two sets of untraced runs of every workload in BENCHMARK.json,
# alternating between the sets run by run, so that the sets' medians show
# how far the same code moves between sets. Run from the repository root:
#
#   bash bench/baseline.sh bench/results/<commit> [seeds]
#
# Each set runs seeds 1..seeds (default 10) of every workload for the
# run_seconds BENCHMARK.json gives. <dir>/a.jsonl and <dir>/b.jsonl get
# one line per run: the set, the run's host line and its result line.
# Needs jq.
set -euo pipefail
dir=$1
seeds=${2:-10}
seconds=$(jq -r .run_seconds BENCHMARK.json)
mkdir -p "$dir"
for w in $(jq -r '.workloads[].name' BENCHMARK.json); do
  for seed in $(seq 1 "$seeds"); do
    order="a b"
    if (( seed % 2 == 0 )); then order="b a"; fi
    for set in $order; do
      out=$(bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0)
      host=$(grep '^host ' <<<"$out" | cut -c6-)
      jq -cn --arg set "$set" --argjson host "$host" --argjson result "$(tail -n 1 <<<"$out")" \
        '{set: $set, host: $host, result: $result}' >>"$dir/$set.jsonl"
    done
  done
done
