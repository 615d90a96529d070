#!/usr/bin/env bash
# Builds lsserve and the load generator from the checkout's sources, then
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload adhoc --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and per-run scratch directories stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off

test -f "$root/go.mod" -a -d "$root/cmd/lsserve" || {
	echo "perfbench: run from the repository root (go.mod and cmd/lsserve not found)" >&2
	exit 2
}
go build -o "$out/lsserve" ./cmd/lsserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
