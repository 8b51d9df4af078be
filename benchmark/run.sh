#!/usr/bin/env bash
# halosim end-to-end benchmark. Builds halo_bench and the halo_sweep it
# drives from this checkout's sources (Release, into .bench_build/), then
# runs it; build output goes to stderr.
#
#   benchmark/run.sh                     all workloads, untraced + traced
#   benchmark/run.sh --quick             one pass per workload, every check
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --compare a.json b.json
#
# See benchmark/README.md for the workloads, metrics and bounds.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

{
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" --target halo_bench -j "$(nproc)"
} >&2

exec "$build/halo_bench" --root "$root" "$@"
