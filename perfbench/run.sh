#!/usr/bin/env bash
# Builds nbtried and the benchmark from this checkout and runs one
# benchmark run. Run from the repository root:
#
#   bash perfbench/run.sh --workload read-1m --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, binaries, temp data dirs, results
# and traces.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/nbtried" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an nbtrie checkout (cmd/nbtried not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/home" "$out/tmp"
export HOME="$out/home" GOCACHE="$out/gocache" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go build -o "$out/bin/nbtried" ./cmd/nbtried
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -root "$root" -daemon "$out/bin/nbtried" "$@"
