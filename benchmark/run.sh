#!/usr/bin/env bash
# Regenerates the committed baseline under benchmark/results/:
#
#   host.txt       nproc, CPU model, toolchain, date
#   set1.jsonl     every workload run once per seed 1..10 (end-to-end)
#   set2.jsonl     the same again, after set1 finished
#   layers.jsonl   every workload traced once (seed 1), per-layer metrics
#   layers.txt     the same as aligned tables
#
# Then compare the two sets with
#   benchmark/target/release/flowcon-benchmark compare \
#       benchmark/results/set1.jsonl benchmark/results/set2.jsonl
# from the repository root.  Takes about 40 minutes on a 2-core host.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
out="$here/results"
workloads="headless_1m recorded_deep sched_tiresias open_loop"
seeds="1 2 3 4 5 6 7 8 9 10"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
mkdir -p "$out"
{
  echo "nproc: $(nproc)"
  echo "cpu: $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//')"
  echo "rustc: $(rustc --version)"
  echo "date: $(date -u +%Y-%m-%dT%H:%M:%SZ)"
} > "$out/host.txt"

for set in set1 set2; do
  : > "$out/$set.jsonl"
  for seed in $seeds; do
    for w in $workloads; do
      echo "== $set $w seed $seed" >&2
      bash "$here/bench.sh" --workload "$w" --seed "$seed" --trace 0 >> "$out/$set.jsonl"
    done
  done
done

: > "$out/layers.jsonl"
: > "$out/layers.txt"
for w in $workloads; do
  echo "== trace $w" >&2
  bash "$here/bench.sh" --workload "$w" --seed 1 --trace 1 \
    >> "$out/layers.jsonl" 2>> "$out/layers.txt"
done
