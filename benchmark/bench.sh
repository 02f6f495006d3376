#!/usr/bin/env bash
# Builds the benchmark, then measures one workload:
#
#   bash benchmark/bench.sh --workload NAME --seed S --seconds N --trace 0|1
#
# `--trace 0` runs `flowcon-benchmark run` (end-to-end metrics, tracing off),
# `--trace 1` runs `flowcon-benchmark trace` (per-layer metrics); the other
# flags pass through.  The last line of standard output is the result JSON.
# Honours CARGO_TARGET_DIR; run it from the repository root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/flowcon-benchmark"

mode=run
args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --trace)
      case "${2:-}" in
        0) mode=run ;;
        1) mode=trace ;;
        *) echo "bench.sh: --trace wants 0 or 1" >&2; exit 2 ;;
      esac
      shift 2
      ;;
    *)
      args+=("$1")
      shift
      ;;
  esac
done

exec "$bin" "$mode" ${args[@]+"${args[@]}"}
