#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Call from the repository
# root:
#
#   bash perfbench/run.sh --workload rmat-sssp-trickle --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (or $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command's environment file and telemetry live under the config
# directory.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# The benchmark module replaces jetstream with the parent directory; outside
# a checkout of the repository the build fails and so does this script.
(cd "$root/perfbench" && go build -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" -workdir "$out" "$@"
