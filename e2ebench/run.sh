#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# it. Run from the repository root:
#
#   bash e2ebench/run.sh --workload short-fleet --seed 1 --seconds 55 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory (or $CARGO_TARGET_DIR when set): the Go build
# cache, the binary, and the durable topology's state dirs. Without the
# rest of the repository next to it the build fails and nothing runs.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

# Keep the go command's caches, temporary files, telemetry and
# settings inside the build dir, and never let it fetch a toolchain.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/gotmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly
mkdir -p "$GOTMPDIR"

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" --scratch "$out/tmp" "$@"
